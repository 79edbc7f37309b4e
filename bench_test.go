// Root benchmarks: the five paths no bench/ workload times. The cold
// fig12 sweep into a fresh store is the baseline of its Observed
// (telemetry) and Diag (flight recorder) twins; Distributed shards the
// same sweep across loopback workers; ReplicatedCampaign times the
// replication axis. bench/ (BENCHMARK.json) is the benchmark of record,
// and the goldens under internal/core/testdata/golden pin every
// artifact's bytes.
package vcabench_test

import (
	"io"
	"net/http/httptest"
	"testing"

	"github.com/vcabench/vcabench"
	"github.com/vcabench/vcabench/internal/serve"
)

// benchScale keeps each run affordable; pass -benchtime=1x to run each
// benchmark exactly once.
var benchScale = vcabench.TinyScale

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
// (HTTP + cell-encoding round trips); across real machines the fleet adds their
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
