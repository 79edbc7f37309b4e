package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/vcabench/vcabench/internal/report"
	"github.com/vcabench/vcabench/internal/store"
)

// The tentpole acceptance criterion: a campaign run against a cold
// store, rerun from a fresh testbed ("fresh process") over the same
// directory, renders byte-identical table and JSON output while
// recomputing zero cells.
func TestStoreWarmCampaignByteIdentical(t *testing.T) {
	dir := t.TempDir()
	render := func(workers int) ([]byte, []byte, store.Stats) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tb := NewTestbed(42).SetParallelism(workers).WithStore(st)
		res, err := RunCampaign(tb, detCampaign(), TinyScale)
		if err != nil {
			t.Fatal(err)
		}
		var tbl, js bytes.Buffer
		res.RenderTable().Render(&tbl)
		if err := report.WriteJSON(&js, res); err != nil {
			t.Fatal(err)
		}
		if err := tb.StoreErr(); err != nil {
			t.Fatal(err)
		}
		return tbl.Bytes(), js.Bytes(), st.Stats()
	}

	coldTbl, coldJS, cold := render(1)
	warmTbl, warmJS, warm := render(4) // different worker count on purpose

	cells := uint64(len(mustKeys(t, detCampaign())))
	if cold.Hits() != 0 || cold.Puts != cells {
		t.Errorf("cold stats = %+v, want 0 hits and %d puts", cold, cells)
	}
	if warm.Misses != 0 || warm.Puts != 0 || warm.Hits() != cells {
		t.Errorf("warm stats = %+v, want %d hits, 0 misses, 0 puts (zero recompute)", warm, cells)
	}
	if !bytes.Equal(coldTbl, warmTbl) {
		t.Errorf("warm table differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldTbl, warmTbl)
	}
	if !bytes.Equal(coldJS, warmJS) {
		t.Errorf("warm JSON differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldJS, warmJS)
	}
}

// Lag studies persist too: a full figure render (CDF plots drawn from
// LagStudyResult maps of samples) survives the store round trip.
func TestStoreWarmLagFigureByteIdentical(t *testing.T) {
	dir := t.TempDir()
	render := func() (string, store.Stats) {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		tb := NewTestbed(9).WithStore(st)
		e, ok := Lookup("fig4")
		if !ok {
			t.Fatal("fig4 missing")
		}
		var sb strings.Builder
		e.Run(tb, TinyScale, &sb)
		if err := tb.StoreErr(); err != nil {
			t.Fatal(err)
		}
		return sb.String(), st.Stats()
	}
	cold, coldStats := render()
	warm, warmStats := render()
	if coldStats.Puts != 3 { // one unit per platform
		t.Errorf("cold puts = %d, want 3", coldStats.Puts)
	}
	if warmStats.Misses != 0 || warmStats.Puts != 0 {
		t.Errorf("warm run recomputed units: %+v", warmStats)
	}
	if cold != warm {
		t.Errorf("fig4 warm render differs:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

// Ablation arms are memoized lag units: a second run on a fresh testbed
// sharing the store serves both arms from it and renders the same bytes.
func TestStoreWarmAblationByteIdentical(t *testing.T) {
	st := &mapStore{m: make(map[string][]byte)}
	render := func() string {
		tb := NewTestbed(42).WithStore(st)
		e, ok := Lookup("ablate-p2p")
		if !ok {
			t.Fatal("ablate-p2p missing")
		}
		var sb strings.Builder
		e.Run(tb, TinyScale, &sb)
		if err := tb.StoreErr(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	cold := render()
	if got := st.puts.Load(); got != 2 {
		t.Fatalf("cold run persisted %d units, want 2 (one per arm)", got)
	}
	warm := render()
	if got := st.puts.Load(); got != 2 {
		t.Errorf("warm run recomputed %d arms", got-2)
	}
	if cold != warm {
		t.Errorf("ablate-p2p warm render differs:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

func mustKeys(t *testing.T, c Campaign) []string {
	t.Helper()
	keys, err := c.UnitKeys()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// Store keys must separate everything results depend on beyond the unit
// key: schema version aside — seed, scale (including tweaked scales
// reusing a preset name) and campaign context that
// single-valued axes leave out of unit keys.
func TestCellKeyScoping(t *testing.T) {
	base := NewTestbed(42)
	tiny := scaleFingerprint(TinyScale)
	if a, b := base.cellKey(tiny, "", "k"), NewTestbed(43).cellKey(tiny, "", "k"); a == b {
		t.Error("different seeds share a cell key")
	}
	if a, b := base.cellKey(tiny, "", "k"), base.cellKey(scaleFingerprint(QuickScale), "", "k"); a == b {
		t.Error("different scales share a cell key")
	}
	tweaked := TinyScale
	tweaked.QoEDur *= 2
	if a, b := base.cellKey(tiny, "", "k"), base.cellKey(scaleFingerprint(tweaked), "", "k"); a == b {
		t.Error("a tweaked scale reusing the preset name shares a cell key")
	}
	if a, b := base.cellKey(tiny, "ctx1", "k"), base.cellKey(tiny, "ctx2", "k"); a == b {
		t.Error("different campaign salts share a cell key")
	}
	// And two same-named campaigns differing only in a single-valued
	// axis resolve to different salts (their unit keys collide).
	a := Campaign{Name: "s", Platforms: []string{"zoom"}}
	b := Campaign{Name: "s", Platforms: []string{"zoom"}, Audio: []bool{true}}
	ra, err := a.resolve()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if saltOf(ra) == saltOf(rb) {
		t.Error("campaigns differing in a single-valued axis share a salt")
	}
}

// saltOf mirrors RunCampaign's store-salt derivation.
func saltOf(rc *resolvedCampaign) string {
	return fingerprint(fmt.Sprintf("%+v", rc))
}

// A store serving undecodable bytes is a miss, not a failure: the run
// recomputes and overwrites.
type garbageStore struct{ gets, puts int }

func (g *garbageStore) Get(string) ([]byte, bool) { g.gets++; return []byte("junk"), true }
func (g *garbageStore) Put(string, []byte) error  { g.puts++; return nil }

func TestStoreGarbageToleratedAndOverwritten(t *testing.T) {
	g := &garbageStore{}
	tb := NewTestbed(3).WithStore(g)
	res, err := RunCampaign(tb, Campaign{Name: "g", Platforms: []string{"zoom"}}, TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || res.Cells[0].PSNR == nil {
		t.Fatalf("run with garbage store produced no result: %+v", res)
	}
	if g.gets == 0 || g.puts == 0 {
		t.Errorf("store consulted %d times, rewritten %d times; want both > 0", g.gets, g.puts)
	}
	if err := tb.StoreErr(); err != nil {
		t.Errorf("garbage reads must not surface as store errors: %v", err)
	}
}

// A failing Put never fails the run, but is reported via StoreErr.
type readOnlyStore struct{}

func (readOnlyStore) Get(string) ([]byte, bool) { return nil, false }
func (readOnlyStore) Put(string, []byte) error  { return errors.New("disk full") }

func TestStorePutFailureSurfacedNotFatal(t *testing.T) {
	tb := NewTestbed(4).WithStore(readOnlyStore{})
	if _, err := RunCampaign(tb, Campaign{Name: "ro", Platforms: []string{"zoom"}}, TinyScale); err != nil {
		t.Fatalf("read-only store failed the run: %v", err)
	}
	if err := tb.StoreErr(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("StoreErr = %v, want the Put failure", err)
	}
}
