package core

import (
	"strings"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
)

// Finding-1 shape: with the host (and relay) in US-East, lag grows with
// distance from US-East; US-West suffers ~30 ms more than US-East.
func TestLagGeographicOrdering(t *testing.T) {
	tb := NewTestbed(42)
	r := RunLagStudy(tb, platform.Zoom, geo.USEast, USLagFleet(geo.USEast), TinyScale)
	east := r.Lags[geo.USEast2.Name].Median()
	central := r.Lags[geo.USCentral.Name].Median()
	west := r.Lags[geo.USWest.Name].Median()
	if !(east < central && central < west) {
		t.Errorf("lag ordering: east2=%.1f central=%.1f west=%.1f", east, central, west)
	}
	if d := west - east; d < 15 || d > 50 {
		t.Errorf("west-east lag delta = %.1f ms, want ~30", d)
	}
	// Absolute band: US Zoom lag 5-60 ms.
	if east < 2 || west > 80 {
		t.Errorf("lag band off: east %.1f, west %.1f", east, west)
	}
	// Each receiver collected samples.
	for name, s := range r.Lags {
		if s.Len() == 0 {
			t.Errorf("no lag samples for %s", name)
		}
	}
}

// Finding-1/Fig 5b shape: Webex pins sessions to US-East even when the
// host is in US-West, so the *other* US-West client suffers the worst lag
// and RTTs from US-West are ~60 ms.
func TestWebexDetourFromUSWest(t *testing.T) {
	tb := NewTestbed(43)
	r := RunLagStudy(tb, platform.Webex, geo.USWest, USLagFleet(geo.USWest), TinyScale)
	west2 := r.Lags[geo.USWest2.Name].Median()
	east := r.Lags[geo.USEast.Name].Median()
	if west2 <= east {
		t.Errorf("detour shape missing: west2 lag %.1f <= east lag %.1f", west2, east)
	}
	rttWest := r.RTTs[geo.USWest.Name].Median()
	if rttWest < 40 || rttWest > 90 {
		t.Errorf("US-West RTT to Webex endpoint = %.1f ms, want ~60", rttWest)
	}
	rttEast := r.RTTs[geo.USEast.Name].Median()
	if rttEast > 15 {
		t.Errorf("US-East RTT = %.1f ms, want small (endpoint is east)", rttEast)
	}
}

// Finding-2 shape: EU sessions on Zoom/Webex pay a trans-Atlantic
// penalty; Meet stays local and low.
func TestEULagPlatformGap(t *testing.T) {
	tb := NewTestbed(44)
	med := func(k platform.Kind) float64 {
		r := RunLagStudy(tb, k, geo.CH, EULagFleet(geo.CH), TinyScale)
		all := 0.0
		n := 0
		for _, s := range r.Lags {
			if s.Len() > 0 {
				all += s.Median()
				n++
			}
		}
		return all / float64(n)
	}
	zoom, webex, meet := med(platform.Zoom), med(platform.Webex), med(platform.Meet)
	if meet >= zoom || meet >= webex {
		t.Errorf("Meet EU lag %.1f should beat Zoom %.1f and Webex %.1f", meet, zoom, webex)
	}
	if zoom < 60 || webex < 60 {
		t.Errorf("EU Zoom/Webex lag should be trans-Atlantic: %.1f / %.1f", zoom, webex)
	}
	if meet > 60 {
		t.Errorf("Meet EU lag %.1f should stay local (<60ms)", meet)
	}
}

// Fig 3 shape: endpoint churn per platform.
func TestEndpointChurn(t *testing.T) {
	tel := manualTelemetry()
	tb := NewTestbed(45).WithTelemetry(tel)
	sce := LagScenarios()[0]
	zoom := lagStudyAll(tb, TinyScale, sce, lagUnits(sce, platform.Zoom)...)[0]
	if zoom.Endpoints.PerSession != 1 || zoom.Endpoints.Total != TinyScale.LagSessions {
		t.Errorf("zoom endpoints: %+v", zoom.Endpoints)
	}
	meet := lagStudyAll(tb, TinyScale, sce, lagUnits(sce, platform.Meet)...)[0]
	if meet.Endpoints.Total > 2 {
		t.Errorf("meet endpoints: %+v, want sticky (<=2)", meet.Endpoints)
	}
	// A repeat is a store hit: no rerun, the same encoding.
	checkRepeatHit(t, tel, zoom, func() any {
		return lagStudyAll(tb, TinyScale, sce, lagUnits(sce, platform.Zoom)...)[0]
	})
}

// Fig 2 shape: the flash feed produces matching big-packet bursts on both
// sides.
func TestFig2Series(t *testing.T) {
	tb := NewTestbed(46)
	sce := LagScenarios()[0]
	r := lagStudyAll(tb, TinyScale, sce, lagUnits(sce, platform.Webex)...)[0]
	big := func(ss []int) int {
		n := 0
		for _, s := range ss {
			if s > 200 {
				n++
			}
		}
		return n
	}
	if big(r.Fig2.SentS) == 0 || big(r.Fig2.RecvS) == 0 {
		t.Errorf("no big packets in fig2 series: sent %d recv %d", big(r.Fig2.SentS), big(r.Fig2.RecvS))
	}
	if len(r.Fig2.SentT) != len(r.Fig2.SentS) {
		t.Error("series length mismatch")
	}
}

// Fig 12/15 shapes: LM beats HM in QoE; Meet's 2-party sessions run much
// hotter than its multi-party ones.
func TestQoEMotionAndMeetBoost(t *testing.T) {
	tb := NewTestbed(47)
	lm := RunQoEStudy(tb, platform.Zoom, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 2), media.LowMotion, TinyScale, QoEOpts{})
	hm := RunQoEStudy(tb, platform.Zoom, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 2), media.HighMotion, TinyScale, QoEOpts{})
	if lm.PSNR.Mean() <= hm.PSNR.Mean() {
		t.Errorf("LM PSNR %.1f <= HM PSNR %.1f", lm.PSNR.Mean(), hm.PSNR.Mean())
	}
	if lm.SSIM.Mean() <= hm.SSIM.Mean() {
		t.Errorf("LM SSIM %.3f <= HM SSIM %.3f", lm.SSIM.Mean(), hm.SSIM.Mean())
	}
	m2 := RunQoEStudy(tb, platform.Meet, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 1), media.HighMotion, TinyScale, QoEOpts{})
	m4 := RunQoEStudy(tb, platform.Meet, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 3), media.HighMotion, TinyScale, QoEOpts{})
	if m2.DownMbps.Mean() < m4.DownMbps.Mean()*2 {
		t.Errorf("Meet N=2 rate %.2f not >> N=4 rate %.2f", m2.DownMbps.Mean(), m4.DownMbps.Mean())
	}
}

// Fig 15 shape: Webex multi-user download rate is the highest of the
// three; Zoom's P2P (N=2) runs ~1 Mbps vs ~0.7 relay.
func TestRateShapes(t *testing.T) {
	tb := NewTestbed(48)
	down := func(k platform.Kind, n int) float64 {
		r := RunQoEStudy(tb, k, geo.USEast, QoEReceiverRegions(geo.ZoneUS, n-1), media.HighMotion, TinyScale, QoEOpts{})
		return r.DownMbps.Mean()
	}
	wx, zm, mt := down(platform.Webex, 4), down(platform.Zoom, 4), down(platform.Meet, 4)
	if !(wx > zm && wx > mt) {
		t.Errorf("Webex multi-user rate %.2f should top Zoom %.2f and Meet %.2f", wx, zm, mt)
	}
	zp2p := down(platform.Zoom, 2)
	if zp2p < zm*1.15 {
		t.Errorf("Zoom P2P rate %.2f not above relay rate %.2f", zp2p, zm)
	}
}

// Fig 17 shape: at a 500 kbps cap Webex (still pushing 2.5 Mbps) freezes
// far more than Zoom/Meet, and everyone's QoE at 250 kbps is worse than
// uncapped.
func TestBandwidthCapShapes(t *testing.T) {
	tb := NewTestbed(49)
	run := func(k platform.Kind, cap int64) *QoEStudyResult {
		return RunQoEStudy(tb, k, geo.USEast, []geo.Region{geo.USEast2},
			media.HighMotion, TinyScale, QoEOpts{DownlinkCapBps: cap})
	}
	wx := run(platform.Webex, 500_000)
	zm := run(platform.Zoom, 500_000)
	mt := run(platform.Meet, 500_000)
	if wx.Freeze.Mean() < zm.Freeze.Mean() || wx.Freeze.Mean() < mt.Freeze.Mean() {
		t.Errorf("Webex freeze %.2f should exceed Zoom %.2f and Meet %.2f at 500k",
			wx.Freeze.Mean(), zm.Freeze.Mean(), mt.Freeze.Mean())
	}
	for _, k := range platform.Kinds {
		capped := run(k, 250_000)
		free := run(k, 0)
		if capped.SSIM.Mean() >= free.SSIM.Mean() {
			t.Errorf("%s: SSIM at 250k (%.3f) >= uncapped (%.3f)", k, capped.SSIM.Mean(), free.SSIM.Mean())
		}
	}
}

// Fig 18 shape: Zoom audio survives a 250 kbps cap; Webex audio at 250k
// is clearly worse than uncapped. Sessions must be long enough to
// amortize rate-control convergence (the paper's ran five minutes).
func TestAudioCapShapes(t *testing.T) {
	tb := NewTestbed(50)
	sc := TinyScale
	sc.QoEDur = 25 * time.Second
	run := func(k platform.Kind, cap int64) float64 {
		r := RunQoEStudy(tb, k, geo.USEast, []geo.Region{geo.USEast2},
			media.LowMotion, sc, QoEOpts{DownlinkCapBps: cap, WithAudio: true})
		return r.MOS.Mean()
	}
	zoomFree, zoomCap := run(platform.Zoom, 0), run(platform.Zoom, 250_000)
	if zoomCap < zoomFree-0.8 {
		t.Errorf("Zoom audio collapsed under cap: %.2f -> %.2f", zoomFree, zoomCap)
	}
	wxFree, wxCap := run(platform.Webex, 0), run(platform.Webex, 250_000)
	if wxCap > wxFree-0.3 {
		t.Errorf("Webex audio should degrade under cap: %.2f -> %.2f", wxFree, wxCap)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := IDs()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
	for _, want := range []string{"table1", "table2", "table3", "table4",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "ablate-webex-geo", "ablate-meet-single",
		"ablate-zoom-nolb", "ablate-p2p"} {
		if !seen[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
	if _, ok := Lookup("fig4"); !ok {
		t.Error("Lookup(fig4) failed")
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup(fig99) should fail")
	}
}

// The cheap experiments render without errors and produce content.
func TestStaticExperimentsRender(t *testing.T) {
	for _, id := range []string{"table2", "table3", "fig19", "table4"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tb := NewTestbed(51)
		var sb strings.Builder
		e.Run(tb, TinyScale, &sb)
		if len(sb.String()) < 100 {
			t.Errorf("%s output suspiciously short:\n%s", id, sb.String())
		}
	}
}

// A variant shares its base platform's node names, so one testbed must
// refuse a second profile of a platform it already runs, in either
// order, while other platforms and repeat lookups stay fine.
func TestTestbedRejectsSecondProfileOfAPlatform(t *testing.T) {
	for _, pair := range [][2]platform.Kind{
		{platform.Zoom, platform.ZoomRelay},
		{platform.ZoomRelay, platform.Zoom},
		{platform.ZoomRelay, platform.ZoomNoLB},
	} {
		tb := NewTestbed(52)
		first := tb.Platform(pair[0])
		if tb.Platform(pair[0]) != first {
			t.Errorf("%s: repeat lookup instantiated a second platform", pair[0])
		}
		tb.Platform(platform.Webex)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after %s: expected panic", pair[1], pair[0])
				}
			}()
			tb.Platform(pair[1])
		}()
	}
}

func TestFleetHelpers(t *testing.T) {
	us := USLagFleet(geo.USEast)
	if len(us) != 6 {
		t.Errorf("US fleet = %d, want 6", len(us))
	}
	for _, r := range us {
		if r.Name == geo.USEast.Name {
			t.Error("host included in fleet")
		}
	}
	eu := EULagFleet(geo.CH)
	if len(eu) != 6 {
		t.Errorf("EU fleet = %d", len(eu))
	}
	if got := QoEReceiverRegions(geo.ZoneUS, 7); len(got) != 7 {
		t.Errorf("receiver regions = %d", len(got))
	}
}

func TestCapLabel(t *testing.T) {
	cases := map[int64]string{
		0: "Infinite", 250_000: "250Kbps", 500_000: "500Kbps", 1_000_000: "1Mbps",
		750_000: "750Kbps", 1_500_000: "1.5Mbps",
	}
	for in, want := range cases {
		if got := CapLabel(in); got != want {
			t.Errorf("CapLabel(%d) = %q, want %q", in, got, want)
		}
	}
}
