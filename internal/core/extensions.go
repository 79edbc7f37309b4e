package core

import (
	"fmt"
	"io"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/report"
)

// Extensions implement the future work the paper sketches in §6:
// dynamic last-mile variation ("a more realistic QoE analysis would
// consider dynamic bandwidth variation and jitter as well") and
// conference scalability beyond the 11 participants the paper reached.
// Both are declared as campaign grids (campaign.go): the last-mile
// study is a netem axis with fluctuating and steady conditions, the
// scale study a session-size axis.
func extensions() []Experiment {
	return []Experiment{
		{
			ID:    "ext-lastmile",
			Title: "QoE under a fluctuating last mile (paper §6 future work)",
			Paper: "not in the paper; extends Fig 17 with time-varying capacity",
			Run:   runLastMile,
		},
		{
			ID:    "ext-scale",
			Title: "QoE as sessions grow to 11 participants (paper §6 future work)",
			Paper: "not in the paper; extends Fig 12 beyond N=6",
			Run:   runScaleStudy,
		},
	}
}

// lastMileCampaign alternates a receiver's downlink between a
// comfortable and a congested capacity every few seconds, with the two
// steady extremes as reference arms — one netem condition per arm.
func lastMileCampaign() Campaign {
	spec := pairCampaign("ext-lastmile")
	spec.Netem = []Netem{
		{Name: "fluct", FluctHiBps: 1_500_000, FluctLoBps: 300_000, FluctPeriodSec: 4},
		{Name: "steady-300k", DownCapBps: 300_000},
		{Name: "steady-1.5M", DownCapBps: 1_500_000},
	}
	return spec
}

// runLastMile compares each platform's QoE under the fluctuating
// downlink against its steady-state behaviour at both extremes.
func runLastMile(tb *Testbed, sc Scale, w io.Writer) {
	t := report.Table{
		Title:  "ext-lastmile: fluctuating 1.5Mbps <-> 300kbps downlink (HM feed)",
		Header: []string{"platform", "fluct PSNR", "fluct SSIM", "fluct freeze", "steady-300k SSIM", "steady-1.5M SSIM"},
	}
	res := mustRunCampaign(tb, lastMileCampaign(), sc)
	for _, kind := range platform.Kinds {
		fl := res.mustCell(fmt.Sprintf("ext-lastmile/%s/fluct", kind))
		lo := res.mustCell(fmt.Sprintf("ext-lastmile/%s/steady-300k", kind))
		hi := res.mustCell(fmt.Sprintf("ext-lastmile/%s/steady-1.5M", kind))
		t.AddRow(string(kind), fl.PSNR.Mean, fl.SSIM.Mean, fl.Freeze.Mean,
			lo.SSIM.Mean, hi.SSIM.Mean)
	}
	t.Render(w)
	fmt.Fprintln(w, "\nA platform that adapts quickly should land near its steady-state")
	fmt.Fprintln(w, "mean; one that oscillates (Webex) lands well below the worse extreme.")
}

// runScaleStudy pushes sessions to 11 participants (the paper's §6
// question) and reports how QoE and the host's upload rate hold up.
func runScaleStudy(tb *Testbed, sc Scale, w io.Writer) {
	t := report.Table{
		Title:  "ext-scale: QoE and rates up to N=11 (HM feed, US)",
		Header: []string{"N"},
	}
	for _, k := range platform.Kinds {
		t.Header = append(t.Header, string(k)+"-SSIM", string(k)+"-up Mbps", string(k)+"-down Mbps")
	}
	sizes := []int{2, 6, 11}
	res := mustRunCampaign(tb, Campaign{
		Name:       "ext-scale",
		Geometries: []Geometry{{Host: geo.USEast.Name, Zone: string(geo.ZoneUS)}},
		Motions:    []string{media.HighMotion.String()},
		Sizes:      sizes,
	}, sc)
	for _, n := range sizes {
		row := []any{n}
		for _, k := range platform.Kinds {
			c := res.mustCell(fmt.Sprintf("ext-scale/%s/%d", k, n))
			row = append(row, c.SSIM.Mean, c.UpMbps.Mean, c.DownMbps.Mean)
		}
		t.AddRow(row...)
	}
	t.Render(w)
}
