package core

import (
	"bytes"
	"testing"

	"github.com/vcabench/vcabench/internal/diag"
)

// These tests pin the flight recorder's two contracts: armed runs
// produce byte-identical artifacts regardless of how the work was
// scheduled or cached, and the documents themselves stay stable across
// refactors (the golden artifact).

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

// TestDiagIdenticalAcrossParallelism is the determinism half of the
// recorder contract: each campaign unit records on its own fork, so
// worker count must not leak into any artifact byte. Under -race this
// also exercises the probe seams beneath the 8-worker scheduler.
func TestDiagIdenticalAcrossParallelism(t *testing.T) {
	serial := runDiagFig13(t, 1, nil)
	wide := runDiagFig13(t, 8, nil)
	if len(serial) == 0 || len(serial) != len(wide) {
		t.Fatalf("document sets differ: %d serial vs %d wide", len(serial), len(wide))
	}
	//vcalint:ignore maprange order-independent comparison; each key is checked against its counterpart
	for k, a := range serial {
		if b, ok := wide[k]; !ok {
			t.Errorf("document %s missing at parallelism 8", k)
		} else if !bytes.Equal(a, b) {
			t.Errorf("document %s differs between parallelism 1 and 8", k)
		}
	}
}

// TestDiagIdenticalAcrossCacheTemperature runs cold then warm against
// one store: warm cells decode their Diag document from the store
// instead of recording anew, and the artifact bytes must not change.
func TestDiagIdenticalAcrossCacheTemperature(t *testing.T) {
	st := &mapStore{m: make(map[string][]byte)}
	cold := runDiagFig13(t, 4, st)
	puts := st.puts.Load()
	if puts == 0 {
		t.Fatal("cold run stored no cells")
	}
	warm := runDiagFig13(t, 2, st)
	if st.puts.Load() != puts {
		t.Errorf("warm run stored %d new cells, want 0", st.puts.Load()-puts)
	}
	if len(cold) == 0 || len(cold) != len(warm) {
		t.Fatalf("document sets differ: %d cold vs %d warm", len(cold), len(warm))
	}
	//vcalint:ignore maprange order-independent comparison; each key is checked against its counterpart
	for k, a := range cold {
		if !bytes.Equal(a, warm[k]) {
			t.Errorf("document %s differs between cold and warm runs", k)
		}
	}
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
