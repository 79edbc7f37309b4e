// Benchmarks: one per paper table and figure (plus ablations). Each
// bench runs its experiment end to end at a reduced scale and reports
// the headline metric(s) the paper's artifact shows, so `go test
// -bench=. -benchmem` regenerates every result series.
package vcabench_test

import (
	"io"
	"net/http/httptest"
	"testing"

	"github.com/vcabench/vcabench"
	"github.com/vcabench/vcabench/internal/core"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/mobile"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/serve"
)

// benchScale keeps the full suite affordable; pass -benchtime=1x to run
// each artifact exactly once.
var benchScale = vcabench.TinyScale

// runExperiment is the generic artifact bench: execute and discard the
// rendered output, timing the full pipeline (campaign units run on the
// default worker pool, one per CPU).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	runExperimentParallel(b, id, 0)
}

// runExperimentParallel pins the campaign worker count. Output bytes are
// identical at any worker count.
func runExperimentParallel(b *testing.B, id string, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := vcabench.RunParallel(id, 42, benchScale, workers, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// The 30-cell US sweep, cold: full compute plus persistence into a
// fresh store. It is the baseline of the Observed and Diag overhead
// pairs below; the repository benchmark in bench/ times the same sweep
// cold (qoe-sweep) and warm (warm-rerun).
func BenchmarkFig12SweepCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st, err := vcabench.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if err := vcabench.RunWithOpts("fig12", 42, benchScale, vcabench.RunOpts{Store: st}, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Instrumented twin of BenchmarkFig12SweepCold: the identical cold
// sweep with the full telemetry stack armed — engine metrics, span
// tracing, store latency histograms. The gap between the pair is the
// observability overhead, which must stay in the noise (the telemetry
// budget is < 2%): counters are atomics, spans append under one mutex,
// and nothing is exported during the run.
func BenchmarkFig12SweepColdObserved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tel := vcabench.NewTelemetry()
		tel.Tracer = vcabench.NewTracer()
		st, err := vcabench.OpenStoreOptions(b.TempDir(), vcabench.StoreOptions{Telemetry: tel})
		if err != nil {
			b.Fatal(err)
		}
		opts := vcabench.RunOpts{Store: st, Telemetry: tel}
		if err := vcabench.RunWithOpts("fig12", 42, benchScale, opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Diagnostics twin of BenchmarkFig12SweepCold: the identical cold
// sweep with the sim-time flight recorder armed, every cell's CellDiag
// document aggregated and encoded. Against the bare Cold number this
// tracks what -diag-out costs when ON; the budget for the OFF case is
// < 2% (nil probe checks on the packet and step paths), which the
// bench/ workloads guard, since they run with diagnostics off.
func BenchmarkFig12SweepColdDiag(b *testing.B) {
	var docs int
	for i := 0; i < b.N; i++ {
		st, err := vcabench.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		docs = 0
		opts := vcabench.RunOpts{Store: st, Diagnostics: func(d *vcabench.CellDiag) {
			if _, err := vcabench.EncodeDiag(d); err != nil {
				b.Fatal(err)
			}
			docs++
		}}
		if err := vcabench.RunWithOpts("fig12", 42, benchScale, opts, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(docs), "diag-docs")
}

// Distributed counterpart to BenchmarkFig12SweepCold: the same 30 cells
// sharded across two loopback vcabenchd workers through the cluster
// pool. On one machine this mostly measures the dispatch overhead
// (HTTP + gob round trips); across real machines the fleet adds their
// cores.
// Bytes are identical in every variant.
func BenchmarkFig12SweepDistributed(b *testing.B) {
	w1 := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer w2.Close()
	pool, err := vcabench.NewPool([]string{w1.URL, w2.URL})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		err := vcabench.RunWithOpts("fig12", 42, benchScale,
			vcabench.RunOpts{Dispatcher: pool}, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Replicated campaign: two cells × five replicas through the full
// aggregation pipeline. Against single-run numbers this tracks what the
// ×N replication axis costs;
// the reported metric is the mean PSNR CI half-width, the statistical
// payoff the extra compute buys.
func BenchmarkReplicatedCampaign(b *testing.B) {
	spec := vcabench.Campaign{
		Name:      "bench-rep",
		Platforms: []string{"zoom", "meet"},
		Geometries: []vcabench.Geometry{
			{Host: "US-East", Receivers: []string{"US-East2"}},
		},
		Motions: []string{"high-motion"},
		Repeats: 5,
	}
	var ci float64
	for i := 0; i < b.N; i++ {
		res, err := vcabench.RunCampaign(vcabench.NewTestbed(42), spec, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		ci = 0
		for j := range res.Cells {
			ci += *res.Cells[j].PSNR.CI95
		}
		ci /= float64(len(res.Cells))
	}
	b.ReportMetric(ci, "psnr-ci95-halfwidth")
}

// Serial-vs-parallel pair over the P2P ablation's memoized lag units.
// The bench/ workloads cover the other campaign shapes: setup_s is a
// one-worker pass and pass_s_min a GOMAXPROCS-worker pass.
func BenchmarkAblateP2PSerial(b *testing.B)    { runExperimentParallel(b, "ablate-p2p", 1) }
func BenchmarkAblateP2PParallel4(b *testing.B) { runExperimentParallel(b, "ablate-p2p", 4) }

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }

// The four lag figures report the median lag of the farthest client, the
// paper's headline number for each scenario.
func benchLagFigure(b *testing.B, kind platform.Kind, host geo.Region, fleet []geo.Region, far string) {
	b.Helper()
	var med float64
	for i := 0; i < b.N; i++ {
		tb := vcabench.NewTestbed(42)
		res := vcabench.RunLagStudy(tb, kind, host, fleet, benchScale)
		med = res.Lags[far].Median()
	}
	b.ReportMetric(med, "ms-median-lag")
}

func BenchmarkFig4(b *testing.B) {
	benchLagFigure(b, platform.Zoom, geo.USEast, core.USLagFleet(geo.USEast), "US-West")
}
func BenchmarkFig5(b *testing.B) {
	benchLagFigure(b, platform.Webex, geo.USWest, core.USLagFleet(geo.USWest), "US-West2")
}
func BenchmarkFig6(b *testing.B) {
	benchLagFigure(b, platform.Zoom, geo.UKWest, core.EULagFleet(geo.UKWest), "CH")
}
func BenchmarkFig7(b *testing.B) {
	benchLagFigure(b, platform.Meet, geo.CH, core.EULagFleet(geo.CH), "IE")
}

// The four proximity figures report the median RTT from a probe client.
func benchRTTFigure(b *testing.B, kind platform.Kind, host geo.Region, fleet []geo.Region, probe string) {
	b.Helper()
	var med float64
	for i := 0; i < b.N; i++ {
		tb := vcabench.NewTestbed(42)
		res := vcabench.RunLagStudy(tb, kind, host, fleet, benchScale)
		med = res.RTTs[probe].Median()
	}
	b.ReportMetric(med, "ms-median-rtt")
}

func BenchmarkFig8(b *testing.B) {
	benchRTTFigure(b, platform.Zoom, geo.USEast, core.USLagFleet(geo.USEast), "US-West")
}
func BenchmarkFig9(b *testing.B) {
	benchRTTFigure(b, platform.Webex, geo.USWest, core.USLagFleet(geo.USWest), "US-West")
}
func BenchmarkFig10(b *testing.B) {
	benchRTTFigure(b, platform.Zoom, geo.UKWest, core.EULagFleet(geo.UKWest), "CH")
}
func BenchmarkFig11(b *testing.B) {
	benchRTTFigure(b, platform.Webex, geo.CH, core.EULagFleet(geo.CH), "CH")
}

// Fig 12: QoE vs N. Reports the LM-vs-HM SSIM gap on Zoom at N=3.
func BenchmarkFig12(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		tb := vcabench.NewTestbed(42)
		lm := vcabench.RunQoEStudy(tb, platform.Zoom, geo.USEast,
			core.QoEReceiverRegions(geo.ZoneUS, 2), media.LowMotion, benchScale, vcabench.QoEOpts{})
		hm := vcabench.RunQoEStudy(tb, platform.Zoom, geo.USEast,
			core.QoEReceiverRegions(geo.ZoneUS, 2), media.HighMotion, benchScale, vcabench.QoEOpts{})
		gap = lm.SSIM.Mean() - hm.SSIM.Mean()
	}
	b.ReportMetric(gap, "ssim-lm-hm-gap")
}

// Fig 14 is the degradation view of the same sweep.
func BenchmarkFig14(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		tb := vcabench.NewTestbed(43)
		lm := vcabench.RunQoEStudy(tb, platform.Webex, geo.USEast,
			core.QoEReceiverRegions(geo.ZoneUS, 3), media.LowMotion, benchScale, vcabench.QoEOpts{})
		hm := vcabench.RunQoEStudy(tb, platform.Webex, geo.USEast,
			core.QoEReceiverRegions(geo.ZoneUS, 3), media.HighMotion, benchScale, vcabench.QoEOpts{})
		drop = lm.PSNR.Mean() - hm.PSNR.Mean()
	}
	b.ReportMetric(drop, "psnr-db-drop")
}

// Fig 15: data rates. Reports Meet's 2-party vs multi-party rate ratio.
func BenchmarkFig15(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tb := vcabench.NewTestbed(44)
		two := vcabench.RunQoEStudy(tb, platform.Meet, geo.USEast,
			core.QoEReceiverRegions(geo.ZoneUS, 1), media.LowMotion, benchScale, vcabench.QoEOpts{})
		four := vcabench.RunQoEStudy(tb, platform.Meet, geo.USEast,
			core.QoEReceiverRegions(geo.ZoneUS, 3), media.LowMotion, benchScale, vcabench.QoEOpts{})
		ratio = two.DownMbps.Mean() / four.DownMbps.Mean()
	}
	b.ReportMetric(ratio, "meet-n2-over-n4-rate")
}

// Fig 16: EU QoE. Reports Meet's PSNR edge over Webex at N=4, host CH.
func BenchmarkFig16(b *testing.B) {
	var edge float64
	for i := 0; i < b.N; i++ {
		tb := vcabench.NewTestbed(45)
		meet := vcabench.RunQoEStudy(tb, platform.Meet, geo.CH,
			core.QoEReceiverRegions(geo.ZoneEU, 3), media.HighMotion, benchScale, vcabench.QoEOpts{})
		webex := vcabench.RunQoEStudy(tb, platform.Webex, geo.CH,
			core.QoEReceiverRegions(geo.ZoneEU, 3), media.HighMotion, benchScale, vcabench.QoEOpts{})
		edge = meet.SSIM.Mean() - webex.SSIM.Mean()
	}
	b.ReportMetric(edge, "meet-ssim-edge")
}

// Fig 17: bandwidth caps. Reports Webex's freeze ratio at a 500k cap.
func BenchmarkFig17(b *testing.B) {
	var freeze float64
	for i := 0; i < b.N; i++ {
		tb := vcabench.NewTestbed(46)
		res := vcabench.RunQoEStudy(tb, platform.Webex, geo.USEast,
			[]geo.Region{geo.USEast2}, media.HighMotion, benchScale,
			vcabench.QoEOpts{DownlinkCapBps: 500_000})
		freeze = res.Freeze.Mean()
	}
	b.ReportMetric(freeze, "webex-freeze-at-500k")
}

// Fig 18: audio under caps. Reports Zoom's MOS at a 250k cap.
func BenchmarkFig18(b *testing.B) {
	var mos float64
	for i := 0; i < b.N; i++ {
		tb := vcabench.NewTestbed(47)
		sc := benchScale
		sc.QoEDur = 20_000_000_000 // 20s: amortize rate-control convergence
		res := vcabench.RunQoEStudy(tb, platform.Zoom, geo.USEast,
			[]geo.Region{geo.USEast2}, media.LowMotion, sc,
			vcabench.QoEOpts{DownlinkCapBps: 250_000, WithAudio: true})
		mos = res.MOS.Mean()
	}
	b.ReportMetric(mos, "zoom-mos-at-250k")
}

// Fig 19: mobile resources. Reports Meet's worst-case data rate (GB/h)
// and Zoom's screen-off battery saving.
func BenchmarkFig19(b *testing.B) {
	var gbph, saving float64
	for i := 0; i < b.N; i++ {
		gbph = mobile.DataRateMbps(platform.Meet, mobile.GalaxyS10, mobile.ScenarioHM) * 3600 / 8 / 1000
		on := mobile.DischargemAh(platform.Zoom, mobile.GalaxyJ3, mobile.ScenarioLM, 60)
		off := mobile.DischargemAh(platform.Zoom, mobile.GalaxyJ3, mobile.ScenarioLMOff, 60)
		saving = 1 - off/on
	}
	b.ReportMetric(gbph, "meet-GB-per-hour")
	b.ReportMetric(saving, "zoom-screenoff-saving")
}

// Ablations.
func BenchmarkAblateWebexGeo(b *testing.B)   { runExperiment(b, "ablate-webex-geo") }
func BenchmarkAblateMeetSingle(b *testing.B) { runExperiment(b, "ablate-meet-single") }
func BenchmarkAblateZoomNoLB(b *testing.B)   { runExperiment(b, "ablate-zoom-nolb") }
func BenchmarkAblateP2P(b *testing.B)        { runExperiment(b, "ablate-p2p") }
