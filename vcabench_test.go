package vcabench_test

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/vcabench/vcabench"
	"github.com/vcabench/vcabench/internal/serve"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	tb := vcabench.NewTestbed(1)
	res := vcabench.RunLagStudy(tb, vcabench.Zoom, vcabench.USEast,
		vcabench.USLagFleet(vcabench.USEast), vcabench.TinyScale)
	if res.Lags["US-West"].Len() == 0 {
		t.Fatal("no lag samples through the public API")
	}
	if res.Lags["US-West"].Median() <= res.Lags["US-East2"].Median() {
		t.Error("geographic lag ordering broken")
	}
}

func TestListAndRun(t *testing.T) {
	exps := vcabench.List()
	if len(exps) < 25 {
		t.Errorf("only %d experiments registered", len(exps))
	}
	var sb strings.Builder
	if err := vcabench.Run("table3", 1, vcabench.TinyScale, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"US-East", "UK-West", "Virginia", "Cardiff"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
	if err := vcabench.Run("no-such-figure", 1, vcabench.TinyScale, &sb); err == nil {
		t.Error("unknown experiment should error")
	}
}

// RunParallel's contract through the public facade: worker count never
// changes the rendered bytes.
func TestRunParallelDeterminism(t *testing.T) {
	render := func(workers int) string {
		var sb strings.Builder
		if err := vcabench.RunParallel("fig3", 7, vcabench.TinyScale, workers, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if a, b := render(1), render(4); a != b {
		t.Errorf("fig3 differs between 1 and 4 workers:\n%s\nvs\n%s", a, b)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		var sb strings.Builder
		if err := vcabench.Run("fig3", 7, vcabench.TinyScale, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different output:\n%s\nvs\n%s", a, b)
	}
}

// Distributed execution through the public facade: a campaign sharded
// across two loopback vcabenchd workers merges to the bytes of a local
// run, and the experiment-by-ID path accepts the same pool.
func TestRunDistributedFacade(t *testing.T) {
	w1 := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(w1.Close)
	w2 := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(w2.Close)
	pool, err := vcabench.NewPool([]string{w1.URL, w2.URL})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pool.Healthy()); got != 2 {
		t.Fatalf("Healthy() found %d of 2 workers", got)
	}

	spec := vcabench.Campaign{Name: "facade-grid", Sizes: []int{2, 3}}
	local, err := vcabench.RunCampaign(vcabench.NewTestbed(3), spec, vcabench.TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := vcabench.RunDistributed(vcabench.NewTestbed(3), spec, vcabench.TinyScale, pool)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := vcabench.WriteJSON(&a, local); err != nil {
		t.Fatal(err)
	}
	if err := vcabench.WriteJSON(&b, dist); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("RunDistributed differs from RunCampaign:\n--- local ---\n%s\n--- distributed ---\n%s", a.Bytes(), b.Bytes())
	}
	if st := pool.Stats(); st.Remote == 0 {
		t.Error("no cells actually crossed the fleet")
	}

	if _, err := vcabench.RunDistributed(vcabench.NewTestbed(3), spec, vcabench.TinyScale, nil); err == nil {
		t.Error("nil pool accepted")
	}

	// Run-by-ID with a dispatcher: campaign-backed artifacts render the
	// same bytes as a plain run.
	var plain, dispatched strings.Builder
	if err := vcabench.Run("fig17", 7, vcabench.TinyScale, &plain); err != nil {
		t.Fatal(err)
	}
	err = vcabench.RunWithOpts("fig17", 7, vcabench.TinyScale,
		vcabench.RunOpts{Dispatcher: pool}, &dispatched)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != dispatched.String() {
		t.Error("fig17 differs between plain and dispatched runs")
	}
}

// A trace-bearing campaign crosses a vcabenchd worker byte-identically:
// the Traces axis survives the HTTP spec round trip, the rate-over-time
// series survives the cell-encoding round trip, and the merged JSON matches a
// purely local run.
func TestRunDistributedTraceCampaign(t *testing.T) {
	w := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(w.Close)
	pool, err := vcabench.NewPool([]string{w.URL})
	if err != nil {
		t.Fatal(err)
	}
	spec := vcabench.Campaign{
		Name:       "facade-traces",
		Platforms:  []string{"zoom", "webex"},
		Geometries: []vcabench.Geometry{{Host: "US-East", Receivers: []string{"US-East2"}}},
		Traces: []vcabench.TraceSpec{
			{Name: "clean"},
			{Name: "dip", Square: &vcabench.SquareTrace{
				HighBps: 0, LowBps: 500_000, HighSec: 2, LowSec: 2, Once: true,
			}},
		},
	}
	local, err := vcabench.RunCampaign(vcabench.NewTestbed(9), spec, vcabench.TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := vcabench.RunDistributed(vcabench.NewTestbed(9), spec, vcabench.TinyScale, pool)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := vcabench.WriteJSON(&a, local); err != nil {
		t.Fatal(err)
	}
	if err := vcabench.WriteJSON(&b, dist); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("distributed trace campaign differs from local:\n--- local ---\n%s\n--- distributed ---\n%s", a.Bytes(), b.Bytes())
	}
	if st := pool.Stats(); st.Remote != 4 {
		t.Errorf("fleet served %d of 4 cells", st.Remote)
	}
	cell := dist.Cell("facade-traces/zoom/dip")
	if cell == nil || len(cell.RateOverTime) == 0 {
		t.Fatal("rate-over-time series lost across the fleet")
	}
}

// The persistent store through the public facade: a warm rerun from a
// "fresh process" (new store handle, new testbed) renders identical
// bytes while recomputing nothing.
func TestRunWithStoreWarmRerun(t *testing.T) {
	dir := t.TempDir()
	render := func() (string, vcabench.StoreStats) {
		st, err := vcabench.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := vcabench.RunWithOpts("fig3", 7, vcabench.TinyScale,
			vcabench.RunOpts{Store: st}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String(), st.Stats()
	}
	cold, coldStats := render()
	warm, warmStats := render()
	if cold != warm {
		t.Errorf("warm rerun differs:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if coldStats.Puts == 0 {
		t.Error("cold run persisted nothing")
	}
	if warmStats.Misses != 0 || warmStats.Puts != 0 {
		t.Errorf("warm run recomputed cells: %+v", warmStats)
	}
}
