package core

import (
	"fmt"
	"io"

	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/report"
)

// ablations are design-choice benches beyond the paper: each flips one
// inferred infrastructure property and re-measures, confirming that the
// paper's observations are consequences of that property. The
// counterfactual arm measures a named platform variant such as
// "zoom@relay" (see internal/platform). Both arms are ordinary memoized
// lag units, so they run in parallel and warm reruns read them from the
// cell store.
func ablations() []Experiment {
	return []Experiment{
		{
			ID:    "ablate-webex-geo",
			Title: "Webex with geo-local (paid-tier) relays",
			Paper: "§6: paid Webex streams from close-by servers (RTT < 20ms)",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				sce := LagScenario{ID: "ablate-webex-geo", Host: geo.CH, Fleet: EULagFleet(geo.CH)}
				arms := lagStudyAll(tb, sc, sce,
					lagUnit{sce.ID + "/free", platform.Webex}, lagUnit{sce.ID + "/paid", platform.WebexPaidTier})
				free, paid := arms[0], arms[1]

				t := report.Table{
					Title:  "ablation: Webex free vs paid tier, host CH",
					Header: []string{"client", "free median lag ms", "paid median lag ms", "free median RTT ms", "paid median RTT ms"},
				}
				for _, r := range sce.Fleet {
					t.AddRow(r.Name,
						free.Lags[r.Name].Median(), paid.Lags[r.Name].Median(),
						free.RTTs[r.Name].Median(), paid.RTTs[r.Name].Median())
				}
				t.Render(w)
			},
		},
		{
			ID:    "ablate-meet-single",
			Title: "Meet forced onto a single-relay topology",
			Paper: "tests whether Meet's EU advantage comes from per-client endpoints",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				sce := LagScenario{ID: "ablate-meet-single", Host: geo.CH, Fleet: EULagFleet(geo.CH)}
				arms := lagStudyAll(tb, sc, sce,
					lagUnit{sce.ID + "/per-client", platform.Meet}, lagUnit{sce.ID + "/single-relay", platform.MeetSingleRelay})
				normal, single := arms[0], arms[1]

				t := report.Table{
					Title:  "ablation: Meet per-client endpoints vs single US relay, host CH",
					Header: []string{"client", "per-client median lag ms", "single-relay median lag ms"},
				}
				for _, r := range sce.Fleet {
					t.AddRow(r.Name, normal.Lags[r.Name].Median(), single.Lags[r.Name].Median())
				}
				t.Render(w)
			},
		},
		{
			ID:    "ablate-zoom-nolb",
			Title: "Zoom without regional load balancing",
			Paper: "tests whether the 3 RTT bands of Figs 10a/11a come from the US-PoP lottery",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				sce := LagScenario{ID: "ablate-zoom-nolb", Host: geo.CH, Fleet: EULagFleet(geo.CH)}
				arms := lagStudyAll(tb, sc, sce,
					lagUnit{sce.ID + "/lb", platform.Zoom}, lagUnit{sce.ID + "/nolb", platform.ZoomNoLB})
				normal, nolb := arms[0], arms[1]

				t := report.Table{
					Title:  "ablation: Zoom RTT spread with/without regional LB, host CH",
					Header: []string{"client", "LB RTT min..max ms", "no-LB RTT min..max ms"},
				}
				for _, r := range sce.Fleet {
					a, b := normal.RTTs[r.Name], nolb.RTTs[r.Name]
					t.AddRow(r.Name,
						fmt.Sprintf("%.0f..%.0f", a.Min(), a.Max()),
						fmt.Sprintf("%.0f..%.0f", b.Min(), b.Max()))
				}
				t.Render(w)
			},
		},
		{
			ID:    "ablate-p2p",
			Title: "Zoom with P2P disabled for two-party calls",
			Paper: "§4.2 footnote: N=2 streams peer-to-peer on ephemeral ports",
			Run: func(tb *Testbed, sc Scale, w io.Writer) {
				sce := LagScenario{ID: "ablate-p2p", Host: geo.USEast, Fleet: []geo.Region{geo.USWest}}
				arms := lagStudyAll(tb, sc, sce,
					lagUnit{sce.ID + "/p2p", platform.Zoom}, lagUnit{sce.ID + "/relay", platform.ZoomRelay})
				normal, relay := arms[0], arms[1]

				t := report.Table{
					Title:  "ablation: Zoom two-party P2P vs forced relay (host US-East, peer US-West)",
					Header: []string{"mode", "median lag ms", "endpoints seen"},
				}
				t.AddRow("p2p", normal.Lags[geo.USWest.Name].Median(), normal.Endpoints.Total)
				t.AddRow("relay", relay.Lags[geo.USWest.Name].Median(), relay.Endpoints.Total)
				t.Render(w)
			},
		},
	}
}
