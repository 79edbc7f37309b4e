package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/obs/obstest"
	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/store"
)

// obsCampaign is a small two-cell grid for telemetry tests.
func obsCampaign() Campaign {
	return Campaign{Name: "obs", Platforms: []string{"zoom", "meet"}}
}

// manualTelemetry builds a fully armed bundle — registry, tracer and a
// hand-advanced clock — that records everything deterministically.
func manualTelemetry() *obs.Telemetry {
	clk := &obs.ManualClock{}
	return &obs.Telemetry{
		Metrics: obs.NewRegistry(),
		Tracer:  obs.NewTracer(clk),
		Clock:   clk,
	}
}

// The tentpole's hard constraint: telemetry is inert. The same
// campaign renders byte-identical JSON with metrics and tracing fully
// enabled, with a store attached, and with none of it.
func TestTelemetryInert(t *testing.T) {
	render := func(tel *obs.Telemetry, withStore bool) []byte {
		tb := NewTestbed(42).SetParallelism(4).WithTelemetry(tel)
		if withStore {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tb.WithStore(st)
		}
		res, err := RunCampaign(tb, detCampaign(), TinyScale)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bare := render(nil, false)
	observed := render(manualTelemetry(), false)
	if !bytes.Equal(bare, observed) {
		t.Errorf("telemetry changed campaign bytes:\n--- bare ---\n%s\n--- observed ---\n%s", bare, observed)
	}
	stored := render(manualTelemetry(), true)
	if !bytes.Equal(bare, stored) {
		t.Errorf("telemetry+store changed campaign bytes")
	}
}

// A traced campaign records the full lifecycle: one campaign span, one
// cell envelope per cell, one unit span per unit, and one terminal
// tier child per unit — "local" cold, "store" on the rerun.
func TestCampaignSpanTree(t *testing.T) {
	tel := manualTelemetry()
	tb := NewTestbed(7).WithTelemetry(tel)
	if _, err := RunCampaign(tb, obsCampaign(), TinyScale); err != nil {
		t.Fatal(err)
	}
	tr := tel.Tracer
	if got := tr.CountTier(obs.TierCampaign); got != 1 {
		t.Errorf("campaign spans = %d, want 1", got)
	}
	if got := tr.CountTier(obs.TierCell); got != 2 {
		t.Errorf("cell spans = %d, want 2", got)
	}
	if got := tr.CountTier(obs.TierUnit); got != 2 {
		t.Errorf("unit spans = %d, want 2", got)
	}
	if got := tr.CountTier(obs.TierLocalRun); got != 2 {
		t.Errorf("local-run spans = %d, want 2", got)
	}
	if got := tr.CountTier(obs.TierStore); got != 2 {
		t.Errorf("store probe spans = %d, want 2", got)
	}

	// Warm rerun: same campaign, two more unit spans served by the
	// testbed's in-process store, no new local runs.
	if _, err := RunCampaign(tb, obsCampaign(), TinyScale); err != nil {
		t.Fatal(err)
	}
	if got := tr.CountTier(obs.TierUnit); got != 4 {
		t.Errorf("unit spans after rerun = %d, want 4", got)
	}
	if got := tr.CountTier(obs.TierLocalRun); got != 2 {
		t.Errorf("local-run spans after rerun = %d, want 2 (store should have served)", got)
	}
	if got := tr.CountTier(obs.TierStore); got != 4 {
		t.Errorf("store probe spans after rerun = %d, want 4", got)
	}

	units := tel.Metrics.CounterVec("vcabench_units_total",
		"Campaign units resolved, by serving tier.", "tier")
	if got := units.With("local").Value(); got != 2 {
		t.Errorf("units_total{local} = %d, want 2", got)
	}
	if got := units.With("store").Value(); got != 2 {
		t.Errorf("units_total{store} = %d, want 2", got)
	}
	inflight := tel.Metrics.Gauge("vcabench_units_inflight",
		"Campaign units currently executing, locally or on a remote worker.")
	if got := inflight.Value(); got != 0 {
		t.Errorf("units_inflight after campaign = %g, want 0", got)
	}
}

// A replicated campaign traces replica envelopes between cells and
// units, and a store-backed rerun serves from the store tier.
func TestReplicatedAndStoreTierSpans(t *testing.T) {
	spec := obsCampaign()
	spec.Name = "obs-reps"
	spec.Repeats = 3
	dir := t.TempDir()

	runOnce := func() *obs.Telemetry {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tel := manualTelemetry()
		tb := NewTestbed(7).WithTelemetry(tel).WithStore(st)
		if _, err := RunCampaign(tb, spec, TinyScale); err != nil {
			t.Fatal(err)
		}
		return tel
	}

	cold := runOnce()
	if got := cold.Tracer.CountTier(obs.TierReplica); got != 6 {
		t.Errorf("replica spans = %d, want 6 (2 cells x 3 reps)", got)
	}
	if got := cold.Tracer.CountTier(obs.TierUnit); got != 6 {
		t.Errorf("unit spans = %d, want 6", got)
	}

	warm := runOnce() // fresh process-equivalent: only the disk store is warm
	units := warm.Metrics.CounterVec("vcabench_units_total",
		"Campaign units resolved, by serving tier.", "tier")
	if got := units.With("store").Value(); got != 6 {
		t.Errorf("units_total{store} = %d, want 6", got)
	}
	if got := units.With("local").Value(); got != 0 {
		t.Errorf("units_total{local} = %d, want 0 on warm run", got)
	}
}

// The engine exposes its series on a scrape even before any unit runs,
// and the exposition passes the promtool-style lint.
func TestEngineMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterEngineMetrics(reg)
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"vcabench_units_inflight 0\n",
		`vcabench_units_total{tier="local"} 0` + "\n",
		`vcabench_units_total{tier="store"} 0` + "\n",
		`vcabench_units_total{tier="dispatch"} 0` + "\n",
		"vcabench_unit_seconds_count 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, `tier="memo"`) {
		t.Errorf("retired memo tier still exposed:\n%s", text)
	}
	if probs := obstest.LintText([]byte(text)); len(probs) != 0 {
		t.Errorf("lint problems: %v", probs)
	}
}

// Fork carries telemetry to unit testbeds without copying state that
// must stay per-fork.
func TestForkPropagatesTelemetry(t *testing.T) {
	tel := manualTelemetry()
	tb := NewTestbed(1).WithTelemetry(tel)
	f := tb.Fork("x")
	if f.Telemetry() != tel {
		t.Error("fork dropped telemetry")
	}
	if NewTestbed(1).Telemetry() != nil {
		t.Error("fresh testbed has telemetry")
	}
}
