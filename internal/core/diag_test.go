package core

import (
	"testing"

	"github.com/vcabench/vcabench/internal/diag"
)

// These tests pin the flight recorder's documents (the golden artifact)
// and its cache-key split. That armed runs produce byte-identical
// artifacts however the work was scheduled or cached is TestContract's
// job: the traces spec's diag-* axes.

// runDiagFig13 executes the paper's §4.4 disturbance campaign with the
// recorder armed and returns every cell's encoded artifact by key.
func runDiagFig13(t *testing.T, workers int, st CellStore) map[string][]byte {
	t.Helper()
	tb := NewTestbed(42).SetParallelism(workers).WithDiagnostics()
	if st != nil {
		tb.WithStore(st)
	}
	if _, err := RunCampaign(tb, fig13Campaign(TinyScale), TinyScale); err != nil {
		t.Fatal(err)
	}
	docs := make(map[string][]byte)
	for _, d := range tb.DiagResults() {
		data, err := diag.Encode(d)
		if err != nil {
			t.Fatalf("encode %s: %v", d.Key, err)
		}
		docs[d.Key] = data
	}
	return docs
}

// TestGoldenFig13Diag locks one fig13 trace cell's artifact to its
// golden copy: the time-binned pipe series, queue-depth series and
// event log (rate switches, trace steps, recoveries, freezes) must not
// drift. Regenerate deliberately with -update.
func TestGoldenFig13Diag(t *testing.T) {
	docs := runDiagFig13(t, 2, nil)
	data, ok := docs["fig13/zoom"]
	if !ok {
		t.Fatalf("no diag document for fig13/zoom; have %d documents", len(docs))
	}
	checkGolden(t, "diag_fig13_zoom.json", data)
}

// TestDiagCacheModeSeparation pins the key-space split: a store warmed
// by a bare run must never satisfy a diagnostics-armed run (its cells
// lack the Diag document), and vice versa.
func TestDiagCacheModeSeparation(t *testing.T) {
	st := &mapStore{m: make(map[string][]byte)}
	bare := NewTestbed(42).SetParallelism(2).WithStore(st)
	if _, err := RunCampaign(bare, fig13Campaign(TinyScale), TinyScale); err != nil {
		t.Fatal(err)
	}
	barePuts := st.puts.Load()
	if barePuts == 0 {
		t.Fatal("bare run stored no cells")
	}
	docs := runDiagFig13(t, 2, st)
	if st.puts.Load() == barePuts {
		t.Error("diag-armed run reused the bare cache: stored no new cells")
	}
	for k, data := range docs {
		d, err := diag.Decode(data)
		if err != nil {
			t.Fatalf("decode %s: %v", k, err)
		}
		if len(d.Pipes) == 0 || len(d.Events) == 0 {
			t.Errorf("document %s is empty (pipes=%d events=%d); bare cache leaked into diag run",
				k, len(d.Pipes), len(d.Events))
		}
	}
}

// TestDiagOffRecordsNothing is the inertness half: an unarmed testbed
// must produce no documents and no Diag field on its results (the
// golden campaign tests pin the byte-level consequence).
func TestDiagOffRecordsNothing(t *testing.T) {
	tb := NewTestbed(42).SetParallelism(2)
	res, err := RunCampaign(tb, fig13Campaign(TinyScale), TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if docs := tb.DiagResults(); len(docs) != 0 {
		t.Errorf("unarmed testbed produced %d diag documents", len(docs))
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.DropsQueue != 0 || c.DropsRandom != 0 {
			t.Errorf("cell %s carries drop causes without diagnostics", c.Key)
		}
		if q := c.Raw; q != nil && q.Diag != nil {
			t.Errorf("cell %s carries a Diag document without diagnostics", c.Key)
		}
	}
}
