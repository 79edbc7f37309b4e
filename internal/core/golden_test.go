package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/trace"
)

// The golden files under testdata/golden lock in the determinism
// contract everything above the scheduler depends on: the same seed,
// scale and spec must keep producing the same bytes across refactors,
// or memoized, stored and remotely computed cells silently diverge
// from fresh ones. Regenerate deliberately with:
//
//	go test ./internal/core -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files instead of comparing")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden copy.\nIf the change is intended, rerun with -update and commit.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// goldenCampaign is a small grid covering the trace axis next to a
// clean reference arm — the newest key segments and the rate-over-time
// series are exactly what must not drift.
func goldenCampaign() Campaign {
	return Campaign{
		Name:      "golden",
		Platforms: []string{"zoom", "webex"},
		Geometries: []Geometry{
			{Host: "US-East", Receivers: []string{"US-East2"}},
		},
		Motions: []string{"high-motion"},
		Traces: []trace.Spec{
			{Name: "clean"},
			{Name: "dip", Square: &trace.SquareSpec{
				HighBps: 0, LowBps: 500_000, HighSec: 2, LowSec: 4, Once: true,
			}},
		},
	}
}

func TestGoldenTraceCampaign(t *testing.T) {
	tb := NewTestbed(42).SetParallelism(2)
	res, err := RunCampaign(tb, goldenCampaign(), TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_campaign_table.txt", []byte(res.RenderTable().String()))
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_campaign.json", buf.Bytes())
}

// goldenReplicatedCampaign exercises the replication axis: a two-cell
// grid at Repeats 3, locking in the "rep=K" aggregation — pooled
// metric summaries, stderr/ci95 fields, the replicas JSON block and
// the ±CI table rendering.
func goldenReplicatedCampaign() Campaign {
	return Campaign{
		Name:      "golden-rep",
		Platforms: []string{"zoom", "webex"},
		Geometries: []Geometry{
			{Host: "US-East", Receivers: []string{"US-East2"}},
		},
		Motions: []string{"high-motion"},
		Repeats: 3,
	}
}

func TestGoldenReplicatedCampaign(t *testing.T) {
	tb := NewTestbed(42).SetParallelism(2)
	res, err := RunCampaign(tb, goldenReplicatedCampaign(), TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "replicated_campaign_table.txt", []byte(res.RenderTable().String()))
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "replicated_campaign.json", buf.Bytes())
}

// The registry artifacts each checkGoldenArtifacts golden pins, in
// render order. TestEveryArtifactHasGolden checks that together with
// TestGoldenTable1 they cover IDs().
var (
	goldenLagIDs = []string{
		"fig2", "fig3", "fig4", "fig8",
		"ablate-webex-geo", "ablate-meet-single", "ablate-zoom-nolb", "ablate-p2p",
	}
	goldenLagScenarioIDs = []string{"fig5", "fig6", "fig7", "fig9", "fig10", "fig11"}
	goldenQoEIDs         = []string{
		"fig12", "fig14", "fig15", "fig16", "fig17", "fig18",
		"ext-lastmile", "ext-scale",
	}
	goldenRemainingIDs = []string{"table2", "table3", "table4", "fig13", "fig19"}
)

// table1 ties the golden layer to a real paper artifact rendered
// through the experiment registry (campaign engine, cell store,
// metric summaries and table renderer in one pass).
func TestGoldenTable1(t *testing.T) {
	e, ok := Lookup("table1")
	if !ok {
		t.Fatal("table1 not registered")
	}
	var buf bytes.Buffer
	e.Run(NewTestbed(42).SetParallelism(2), TinyScale, &buf)
	checkGolden(t, "table1.txt", buf.Bytes())
}

// checkGoldenArtifacts renders the registry artifacts ids in order on
// one testbed at the given parallelism (0 = the testbed default), so
// later artifacts also read the units earlier ones stored, and pins
// the concatenated bytes in the golden file name.
func checkGoldenArtifacts(t *testing.T, name string, parallel int, ids ...string) {
	t.Helper()
	tb := NewTestbed(42).SetParallelism(parallel)
	var buf bytes.Buffer
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		fmt.Fprintf(&buf, "== %s ==\n", id)
		e.Run(tb, TinyScale, &buf)
	}
	checkGolden(t, name, buf.Bytes())
}

// TestGoldenLagArtifacts locks the lag path: the packet scatter, the
// endpoint survey, one lag CDF and one RTT table (Figs 2-4, 8), plus
// every ablation's baseline and counterfactual arms.
func TestGoldenLagArtifacts(t *testing.T) {
	checkGoldenArtifacts(t, "lag_artifacts.txt", 0, goldenLagIDs...)
}

// TestGoldenQoEArtifacts locks the scored QoE path: the fig12 sweep,
// the breakdowns and cap sweeps built on its cells (Figs 14-18) and
// both §6 extensions. Every number here went through the per-frame
// PSNR/SSIM/VIFp scorer, so a scorer change that moves a single bit
// shows up in these bytes.
func TestGoldenQoEArtifacts(t *testing.T) {
	checkGoldenArtifacts(t, "qoe_artifacts.txt", 2, goldenQoEIDs...)
}

// TestGoldenLagScenarios locks the lag and RTT figures of the scenarios
// the lag golden leaves out: Webex from US-West, Zoom from UK-West and
// Meet from CH (Figs 5-7) and their proximity views (Figs 9-11).
func TestGoldenLagScenarios(t *testing.T) {
	checkGoldenArtifacts(t, "lag_scenarios.txt", 2, goldenLagScenarioIDs...)
}

// TestGoldenRemainingArtifacts locks the device, vantage-point and
// mobile tables (Tables 2-4), the bandwidth-drop dip (Fig 13) and the
// mobile resource survey (Fig 19), whose scenarios read the client
// layout values.
func TestGoldenRemainingArtifacts(t *testing.T) {
	checkGoldenArtifacts(t, "remaining_artifacts.txt", 2, goldenRemainingIDs...)
}

// TestEveryArtifactHasGolden fails when a registered artifact is in no
// golden, so a new experiment cannot land with unpinned bytes.
func TestEveryArtifactHasGolden(t *testing.T) {
	pinned := map[string]bool{"table1": true} // TestGoldenTable1
	for _, ids := range [][]string{goldenLagIDs, goldenLagScenarioIDs, goldenQoEIDs, goldenRemainingIDs} {
		for _, id := range ids {
			pinned[id] = true
		}
	}
	for _, id := range IDs() {
		if !pinned[id] {
			t.Errorf("artifact %s is in no golden; add it to a golden ID list and regenerate with -update", id)
		}
	}
}
