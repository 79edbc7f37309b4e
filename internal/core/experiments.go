package core

import (
	"fmt"
	"io"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/mobile"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/trace"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Paper string // the shape the paper reports
	Run   func(tb *Testbed, sc Scale, w io.Writer)
}

// lagUnit is one lag-study campaign unit: its canonical key (which
// derives the shard seed and names the store entry) and the
// platform or variant it measures.
type lagUnit struct {
	key  string
	kind platform.Kind
}

// lagUnits names a scenario's per-platform units
// ("lag/<scenario>/<platform>"), which Figs 2-11 share.
func lagUnits(sce LagScenario, kinds ...platform.Kind) []lagUnit {
	units := make([]lagUnit, len(kinds))
	for i, k := range kinds {
		units[i] = lagUnit{key: "lag/" + sce.ID + "/" + string(k), kind: k}
	}
	return units
}

// lagStudyAll runs lag units on one scenario's host placement through
// the store-backed scheduler, in parallel and each on its own fork, so
// every result depends only on (seed, unit key) and never on what ran
// before it. Results come back in unit order.
func lagStudyAll(tb *Testbed, sc Scale, sce LagScenario, units ...lagUnit) []*LagStudyResult {
	keys := make([]string, len(units))
	for i, u := range units {
		keys[i] = u.key
	}
	res := tb.runMemoized(sc, "", keys, nil, func(stb *Testbed, i int) any {
		return RunLagStudy(stb, units[i].kind, sce.Host, sce.Fleet, sc)
	}, nil)
	out := make([]*LagStudyResult, len(res))
	for i, v := range res {
		out[i] = v.(*LagStudyResult)
	}
	return out
}

// lagFigure renders one of Figs 4-7.
func lagFigure(sce LagScenario) func(tb *Testbed, sc Scale, w io.Writer) {
	return func(tb *Testbed, sc Scale, w io.Writer) {
		studies := lagStudyAll(tb, sc, sce, lagUnits(sce, platform.Kinds...)...)
		for i, kind := range platform.Kinds {
			r := studies[i]
			plot := report.CDFPlot{
				Title:  fmt.Sprintf("%s: streaming lag CDF, host %s, %s", sce.ID, sce.Host.Name, kind),
				XLabel: "video lag (ms)",
			}
			for _, reg := range sce.Fleet {
				plot.Add(reg.Name, r.Lags[reg.Name].Values())
			}
			plot.Render(w)
			fmt.Fprintln(w)
		}
	}
}

// rttFigure renders one of Figs 8-11 (service proximity).
func rttFigure(sce LagScenario, figID string) func(tb *Testbed, sc Scale, w io.Writer) {
	return func(tb *Testbed, sc Scale, w io.Writer) {
		studies := lagStudyAll(tb, sc, sce, lagUnits(sce, platform.Kinds...)...)
		for i, kind := range platform.Kinds {
			r := studies[i]
			t := report.Table{
				Title:  fmt.Sprintf("%s: RTT to service endpoints, host %s, %s", figID, sce.Host.Name, kind),
				Header: []string{"client", "sessions", "min ms", "median ms", "max ms"},
			}
			regions := append([]geo.Region{sce.Host}, sce.Fleet...)
			for _, reg := range regions {
				s := r.RTTs[reg.Name]
				if s == nil || s.Len() == 0 {
					t.AddRow(reg.Name, 0, "-", "-", "-")
					continue
				}
				t.AddRow(reg.Name, s.Len(), s.Min(), s.Median(), s.Max())
			}
			t.Render(w)
			fmt.Fprintln(w)
		}
	}
}

// usSweepCampaign declares the §4.3.1 US sweep behind figs 12/14/15:
// 3 platforms × 2 motion classes × 5 sizes = 30 cells whose keys keep
// the historical "fig12/<platform>/<motion>/<n>" form, so the three
// figures share every memoized unit.
func usSweepCampaign() Campaign {
	return Campaign{
		Name:       "fig12",
		Geometries: []Geometry{{Host: geo.USEast.Name, Zone: string(geo.ZoneUS)}},
		Motions:    []string{media.LowMotion.String(), media.HighMotion.String()},
		Sizes:      sessionSizes(),
	}
}

// pairCampaign is the one-receiver geometry shared by Table 1 and the
// cap sweeps: a US-East host streaming to US-East2.
func pairCampaign(name string) Campaign {
	return Campaign{
		Name:       name,
		Geometries: []Geometry{{Host: geo.USEast.Name, Receivers: []string{geo.USEast2.Name}}},
		Motions:    []string{media.HighMotion.String()},
	}
}

// fig13Campaign declares the paper's §4.4 disturbance scenario as a
// trace-driven campaign: each session's downlink starts uncapped,
// drops to 0.5 Mbps for the middle half of the session, then recovers
// — scaled to the session length so every Scale sees the same shape.
// The cell's rate-over-time series is the figure.
func fig13Campaign(sc Scale) Campaign {
	spec := pairCampaign("fig13")
	quarter := float64(sc.QoEDur.Seconds() / 4) // rounded: arm64 would fuse it into 2*quarter
	spec.Traces = []trace.Spec{{
		Name: "dip500k",
		Square: &trace.SquareSpec{
			HighBps: 0, LowBps: 500_000,
			HighSec: quarter, LowSec: 2 * quarter,
			Once: true,
		},
	}}
	return spec
}

// capsList copies the Fig 17/18 cap axis for a campaign spec.
func capsList() []int64 { return append([]int64(nil), BandwidthCaps...) }

// sessionSizes is the paper's Figs 12-16 session-size axis.
func sessionSizes() []int { return []int{2, 3, 4, 5, 6} }

func qoeTable(w io.Writer, title string, res *CampaignResult, motion media.MotionClass, metric func(*CellResult) float64) {
	t := report.Table{
		Title:  title,
		Header: []string{"N"},
	}
	for _, k := range platform.Kinds {
		t.Header = append(t.Header, string(k))
	}
	for _, n := range sessionSizes() {
		row := []any{n}
		for _, k := range platform.Kinds {
			row = append(row, metric(res.mustCell(fmt.Sprintf("fig12/%s/%s/%d", k, motion, n))))
		}
		t.AddRow(row...)
	}
	t.Render(w)
	fmt.Fprintln(w)
}

// Experiments returns every paper artifact in presentation order.
func Experiments() []Experiment {
	sces := LagScenarios()
	exps := []Experiment{
		{
			ID:    "table1",
			Title: "Minimum bandwidth requirements vs measured one-on-one rates",
			Paper: "Zoom 600k; Webex 0.5-2.5M; Meet 1-2.6M",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				vendorMin := map[platform.Kind][2]string{
					platform.Zoom:  {"600 Kbps", "-"},
					platform.Webex: {"500 Kbps", "2.5 Mbps"},
					platform.Meet:  {"1 Mbps", "2.6 Mbps"},
				}
				t := report.Table{
					Title:  "Table 1: one-on-one calls",
					Header: []string{"platform", "vendor low", "vendor high", "measured down Mbps", "measured up Mbps"},
				}
				res := mustRunCampaign(tb, pairCampaign("table1"), sc)
				for _, kind := range platform.Kinds {
					c := res.mustCell("table1/" + string(kind))
					t.AddRow(string(kind), vendorMin[kind][0], vendorMin[kind][1],
						c.DownMbps.Mean, c.UpMbps.Mean)
				}
				t.Render(w)
			},
		},
		{
			ID:    "table2",
			Title: "Android device characteristics",
			Paper: "J3: Android 8, quad-core, 2GB, 720x1280; S10: Android 11, octa-core, 8GB, 1440x3040",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				t := report.Table{
					Title:  "Table 2: devices",
					Header: []string{"name", "android", "cores", "memory GB", "screen", "battery mAh"},
				}
				for _, d := range mobile.Devices {
					t.AddRow(d.Name, d.AndroidVersion, d.Cores, d.MemoryGB,
						fmt.Sprintf("%dx%d", d.ScreenW, d.ScreenH), d.BatterymAh)
				}
				t.Render(w)
			},
		},
		{
			ID:    "table3",
			Title: "VM locations and counts for streaming lag testing",
			Paper: "7 US VMs (5 regions) + 7 EU VMs (7 regions)",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				t := report.Table{
					Title:  "Table 3: vantage points",
					Header: []string{"zone", "name", "location"},
				}
				for _, r := range geo.USRegions {
					t.AddRow("US", r.Name, r.Location)
				}
				for _, r := range geo.EURegions {
					t.AddRow("Europe", r.Name, r.Location)
				}
				t.Render(w)
			},
		},
		{
			ID:    "fig2",
			Title: "Video lag measurement: packet-size scatter",
			Paper: "periodic spikes of >200B packets every 2s; receiver copy shifted by the lag",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				r := lagStudyAll(tb, sc, sces[0], lagUnits(sces[0], platform.Zoom)...)[0]
				t := report.Table{
					Title:  "fig2: first flashes (zoom, host US-East)",
					Header: []string{"side", "t (ms)", "bytes"},
				}
				emit := func(side string, ts []time.Duration, ss []int) {
					big := 0
					for i := range ts {
						if ss[i] > 200 {
							t.AddRow(side, float64(ts[i])/float64(time.Millisecond), ss[i])
							big++
							if big >= 8 {
								return
							}
						}
					}
				}
				emit("sent", r.Fig2.SentT, r.Fig2.SentS)
				emit("received", r.Fig2.RecvT, r.Fig2.RecvS)
				t.Render(w)
			},
		},
		{
			ID:    "fig3",
			Title: "Service endpoint architecture and churn",
			Paper: "endpoints per client over 20 sessions: Zoom 20, Webex 19.5, Meet 1.8",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				t := report.Table{
					Title:  "fig3: endpoint discovery (host US-East)",
					Header: []string{"platform", "sessions", "distinct endpoints", "per session", "topology"},
				}
				topo := map[platform.Kind]string{
					platform.Zoom:  "single endpoint per session (P2P when N=2)",
					platform.Webex: "single endpoint per session",
					platform.Meet:  "per-client endpoints, cross-relay",
				}
				studies := lagStudyAll(tb, sc, sces[0], lagUnits(sces[0], platform.Kinds...)...)
				for i, kind := range platform.Kinds {
					r := studies[i]
					t.AddRow(string(kind), r.Endpoints.Sessions, r.Endpoints.Total,
						r.Endpoints.PerSession, topo[kind])
				}
				t.Render(w)
			},
		},
		{ID: "fig4", Title: "Streaming lag CDF: host US-East", Paper: "US lag 20-50ms Zoom / 10-70 Webex / 40-70 Meet; farther from US-East = worse", Run: lagFigure(sces[0])},
		{ID: "fig5", Title: "Streaming lag CDF: host US-West", Paper: "Webex detours via US-East: distributions shift ~30ms; worst lag for the other US-West client", Run: lagFigure(sces[1])},
		{ID: "fig6", Title: "Streaming lag CDF: host UK-West", Paper: "EU on Zoom 90-150ms / Webex 75-90ms; Meet 30-40ms", Run: lagFigure(sces[2])},
		{ID: "fig7", Title: "Streaming lag CDF: host Switzerland", Paper: "same shape as fig6", Run: lagFigure(sces[3])},
		{ID: "fig8", Title: "Service proximity: host US-East", Paper: "Zoom/Webex: RTT grows with distance from US-East; Meet: uniform low RTTs", Run: rttFigure(sces[0], "fig8")},
		{ID: "fig9", Title: "Service proximity: host US-West", Paper: "Webex endpoints stay east: US-West RTTs ~60ms", Run: rttFigure(sces[1], "fig9")},
		{ID: "fig10", Title: "Service proximity: host UK-West", Paper: "Zoom shows 3 RTT bands 20/40ms apart (US regional LB); Webex pinned at trans-Atlantic RTT; Meet local", Run: rttFigure(sces[2], "fig10")},
		{ID: "fig11", Title: "Service proximity: host Switzerland", Paper: "same shape as fig10", Run: rttFigure(sces[3], "fig11")},
		{
			ID:    "fig12",
			Title: "Video QoE vs session size (US)",
			Paper: "LM > HM everywhere; Meet N=2 QoE boost; Webex most stable",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				sweep := mustRunCampaign(tb, usSweepCampaign(), sc)
				for _, m := range []media.MotionClass{media.LowMotion, media.HighMotion} {
					qoeTable(w, fmt.Sprintf("fig12 %s: PSNR (dB)", m), sweep, m, func(c *CellResult) float64 { return c.PSNR.Mean })
					qoeTable(w, fmt.Sprintf("fig12 %s: SSIM", m), sweep, m, func(c *CellResult) float64 { return c.SSIM.Mean })
					qoeTable(w, fmt.Sprintf("fig12 %s: VIFp", m), sweep, m, func(c *CellResult) float64 { return c.VIFP.Mean })
				}
			},
		},
		{
			ID:    "fig13",
			Title: "Rate recovery after a mid-call bandwidth drop (trace-driven)",
			Paper: "downlink capped to 0.5Mbps mid-call: rates collapse toward the cap, then climb back once it lifts; recovery speed differs per platform",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				res := mustRunCampaign(tb, fig13Campaign(sc), sc)
				cells := make(map[platform.Kind]*CellResult, len(platform.Kinds))
				for _, k := range platform.Kinds {
					cells[k] = res.mustCell("fig13/" + string(k))
				}
				quarter := sc.QoEDur.Seconds() / 4
				t := report.Table{
					Title: fmt.Sprintf("fig13: receiver download rate (Mbps); 0.5Mbps cap over [%.0fs, %.0fs)",
						quarter, 3*quarter),
					Header: []string{"t (s)"},
				}
				for _, k := range platform.Kinds {
					t.Header = append(t.Header, string(k))
				}
				for i, pt := range cells[platform.Zoom].RateOverTime {
					row := []any{pt.AtSec}
					for _, k := range platform.Kinds {
						row = append(row, cells[k].RateOverTime[i].DownMbps)
					}
					t.AddRow(row...)
				}
				t.Render(w)
			},
		},
		{
			ID:    "fig14",
			Title: "QoE reduction from low-motion to high-motion (US)",
			Paper: "drop is significant (one MOS level); Webex's worsens with N",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				sweep := mustRunCampaign(tb, usSweepCampaign(), sc)
				// Fixed slice, not a map: render order must be deterministic.
				for _, m := range []struct {
					name   string
					metric func(*CellResult) float64
				}{
					{"PSNR degradation (dB)", func(c *CellResult) float64 { return c.PSNR.Mean }},
					{"SSIM degradation", func(c *CellResult) float64 { return c.SSIM.Mean }},
					{"VIFp degradation", func(c *CellResult) float64 { return c.VIFP.Mean }},
				} {
					name, metric := m.name, m.metric
					t := report.Table{Title: "fig14: " + name, Header: []string{"N"}}
					for _, k := range platform.Kinds {
						t.Header = append(t.Header, string(k))
					}
					for _, n := range sessionSizes() {
						row := []any{n}
						for _, k := range platform.Kinds {
							lm := sweep.mustCell(fmt.Sprintf("fig12/%s/%s/%d", k, media.LowMotion, n))
							hm := sweep.mustCell(fmt.Sprintf("fig12/%s/%s/%d", k, media.HighMotion, n))
							row = append(row, metric(lm)-metric(hm))
						}
						t.AddRow(row...)
					}
					t.Render(w)
					fmt.Fprintln(w)
				}
			},
		},
		{
			ID:    "fig15",
			Title: "Upload/download data rates (US)",
			Paper: "Webex highest multi-user, halves on LM; Meet most variable, N=2 at 1.6-2.0M; Zoom flattest, P2P ~1M vs relay ~0.7M",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				sweep := mustRunCampaign(tb, usSweepCampaign(), sc)
				for _, m := range []media.MotionClass{media.LowMotion, media.HighMotion} {
					t := report.Table{
						Title:  fmt.Sprintf("fig15 %s: data rates (Mbps)", m),
						Header: []string{"N"},
					}
					for _, k := range platform.Kinds {
						t.Header = append(t.Header, string(k)+"-up", string(k)+"-down")
					}
					for _, n := range sessionSizes() {
						row := []any{n}
						for _, k := range platform.Kinds {
							c := sweep.mustCell(fmt.Sprintf("fig12/%s/%s/%d", k, m, n))
							row = append(row, c.UpMbps.Mean, c.DownMbps.Mean)
						}
						t.AddRow(row...)
					}
					t.Render(w)
					fmt.Fprintln(w)
				}
			},
		},
		{
			ID:    "fig16",
			Title: "Video QoE (Europe, high motion)",
			Paper: "Meet keeps a slight QoE edge in Europe; Zoom varies more at high N",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				t := report.Table{Title: "fig16: QoE, host CH, HM", Header: []string{"N"}}
				for _, k := range platform.Kinds {
					t.Header = append(t.Header, string(k)+"-PSNR", string(k)+"-SSIM", string(k)+"-VIFp")
				}
				res := mustRunCampaign(tb, Campaign{
					Name:       "fig16",
					Geometries: []Geometry{{Host: geo.CH.Name, Zone: string(geo.ZoneEU)}},
					Motions:    []string{media.HighMotion.String()},
					Sizes:      sessionSizes(),
				}, sc)
				for _, n := range sessionSizes() {
					row := []any{n}
					for _, k := range platform.Kinds {
						c := res.mustCell(fmt.Sprintf("fig16/%s/%d", k, n))
						row = append(row, c.PSNR.Mean, c.SSIM.Mean, c.VIFP.Mean)
					}
					t.AddRow(row...)
				}
				t.Render(w)
			},
		},
		{
			ID:    "fig17",
			Title: "Video QoE under bandwidth caps",
			Paper: "Zoom best >=500k with a 250k cliff; Meet most graceful; Webex collapses <=1M (stalls)",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				motions := []media.MotionClass{media.LowMotion, media.HighMotion}
				tables := make([]*report.Table, len(motions))
				for i, m := range motions {
					tables[i] = &report.Table{
						Title:  fmt.Sprintf("fig17 %s: QoE vs downlink cap", m),
						Header: []string{"cap"},
					}
					for _, k := range platform.Kinds {
						tables[i].Header = append(tables[i].Header, string(k)+"-PSNR", string(k)+"-SSIM", string(k)+"-VIFp", string(k)+"-freeze")
					}
				}
				spec := pairCampaign("fig17")
				spec.Motions = []string{media.LowMotion.String(), media.HighMotion.String()}
				spec.CapsBps = capsList()
				res := mustRunCampaign(tb, spec, sc)
				for mi, m := range motions {
					for _, cap := range BandwidthCaps {
						row := []any{CapLabel(cap)}
						for _, k := range platform.Kinds {
							c := res.mustCell(fmt.Sprintf("fig17/%s/%s/%d", k, m, cap))
							row = append(row, c.PSNR.Mean, c.SSIM.Mean, c.VIFP.Mean, c.Freeze.Mean)
						}
						tables[mi].AddRow(row...)
					}
				}
				for _, t := range tables {
					t.Render(w)
					fmt.Fprintln(w)
				}
			},
		},
		{
			ID:    "fig18",
			Title: "Audio quality under bandwidth caps (MOS-LQO)",
			Paper: "Zoom/Meet audio flat at all caps; Webex audio degrades at <=500k",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				t := report.Table{
					Title:  "fig18: MOS-LQO vs downlink cap (LM sessions with speech)",
					Header: []string{"cap"},
				}
				for _, k := range platform.Kinds {
					t.Header = append(t.Header, string(k))
				}
				spec := pairCampaign("fig18")
				spec.Motions = []string{media.LowMotion.String()}
				spec.CapsBps = capsList()
				spec.Audio = []bool{true}
				res := mustRunCampaign(tb, spec, sc)
				for _, cap := range BandwidthCaps {
					row := []any{CapLabel(cap)}
					for _, k := range platform.Kinds {
						row = append(row, res.mustCell(fmt.Sprintf("fig18/%s/%d", k, cap)).MOS.Mean)
					}
					t.AddRow(row...)
				}
				t.Render(w)
			},
		},
		{
			ID:    "fig19",
			Title: "Mobile resource consumption (CPU, data rate, battery)",
			Paper: "2-3 cores; Meet most bandwidth-hungry; gallery helps only Zoom; screen-off halves battery",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				rng := tb.Sim.Fork("fig19")
				cpu := report.Table{Title: "fig19a: CPU usage (%) median [p25-p75]", Header: []string{"scenario"}}
				rate := report.Table{Title: "fig19b: download data rate (Mbps)", Header: []string{"scenario"}}
				bat := report.Table{Title: "fig19c: battery discharge (mAh per 5-min call, J3)", Header: []string{"scenario"}}
				for _, k := range platform.Kinds {
					for _, d := range []string{"S10", "J3"} {
						cpu.Header = append(cpu.Header, string(k)+"-"+d)
						rate.Header = append(rate.Header, string(k)+"-"+d)
					}
					bat.Header = append(bat.Header, string(k))
				}
				for _, scn := range mobile.StandardScenarios {
					cpuRow := []any{scn.Label}
					rateRow := []any{scn.Label}
					batRow := []any{scn.Label}
					for _, k := range platform.Kinds {
						for _, d := range mobile.Devices {
							s := mobile.CPUSamples(k, d, scn, 100, rng)
							sum := s.Summarize()
							cpuRow = append(cpuRow, fmt.Sprintf("%.0f [%.0f-%.0f]", sum.P50, sum.P25, sum.P75))
							rateRow = append(rateRow, mobile.DataRateMbps(k, d, scn))
						}
						batRow = append(batRow, mobile.DischargemAh(k, mobile.GalaxyJ3, scn, 5))
					}
					cpu.AddRow(cpuRow...)
					rate.AddRow(rateRow...)
					bat.AddRow(batRow...)
				}
				cpu.Render(w)
				fmt.Fprintln(w)
				rate.Render(w)
				fmt.Fprintln(w)
				bat.Render(w)
			},
		},
		{
			ID:    "table4",
			Title: "Data rate and CPU vs conference size",
			Paper: "gallery doubles Zoom's rate at N=6; Webex gallery rate drops; plateau beyond 4 visible tiles",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				t := report.Table{
					Title:  "Table 4: per-device data rate (Mbps) and CPU (%) S10/J3",
					Header: []string{"N", "client", "full rate", "full CPU", "gallery rate", "gallery CPU"},
				}
				for _, n := range []int{3, 6, 11} {
					for _, k := range platform.Kinds {
						full := mobile.Scenario{Label: "full", Feed: media.HighMotion, View: mobile.ViewFullScreen, N: n}
						gal := mobile.Scenario{Label: "gal", Feed: media.HighMotion, View: mobile.ViewGallery, N: n}
						t.AddRow(n, string(k),
							fmt.Sprintf("%.2f/%.2f",
								mobile.DataRateMbps(k, mobile.GalaxyS10, full),
								mobile.DataRateMbps(k, mobile.GalaxyJ3, full)),
							fmt.Sprintf("%.0f/%.0f",
								mobile.CPUPercent(k, mobile.GalaxyS10, full),
								mobile.CPUPercent(k, mobile.GalaxyJ3, full)),
							fmt.Sprintf("%.2f/%.2f",
								mobile.DataRateMbps(k, mobile.GalaxyS10, gal),
								mobile.DataRateMbps(k, mobile.GalaxyJ3, gal)),
							fmt.Sprintf("%.0f/%.0f",
								mobile.CPUPercent(k, mobile.GalaxyS10, gal),
								mobile.CPUPercent(k, mobile.GalaxyJ3, gal)))
					}
				}
				t.Render(w)
			},
		},
	}
	exps = append(exps, ablations()...)
	exps = append(exps, extensions()...)
	return exps
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	return out
}
