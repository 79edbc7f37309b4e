package core

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/report"
)

// dispatchGrid is a small multi-cell campaign for seam tests.
var dispatchGrid = Campaign{
	Name:      "seam",
	Platforms: []string{"zoom", "webex"},
	Sizes:     []int{2, 3},
}

// workerDispatcher simulates a remote worker in-process: every unit
// runs through RunCampaignUnit on a fresh testbed, exactly like
// vcabenchd's POST /units handler.
type workerDispatcher struct {
	calls atomic.Int64
	fail  func(key string) bool // nil = never
}

func (d *workerDispatcher) DispatchUnit(req UnitRequest) ([]byte, error) {
	d.calls.Add(1)
	if d.fail != nil && d.fail(req.Key) {
		return nil, errors.New("injected worker failure")
	}
	sc, ok := ScaleByName(req.Scale)
	if !ok {
		return nil, errors.New("unknown scale " + req.Scale)
	}
	return RunCampaignUnit(NewTestbed(req.Seed), req.Spec, sc, req.Key)
}

func campaignJSON(t *testing.T, tb *Testbed, spec Campaign) []byte {
	t.Helper()
	res, err := RunCampaign(tb, spec, TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Dispatched campaigns must merge to the bytes of a local run, with
// every cell actually crossing the seam.
func TestDispatchByteIdentical(t *testing.T) {
	local := campaignJSON(t, NewTestbed(42), dispatchGrid)
	d := &workerDispatcher{}
	dist := campaignJSON(t, NewTestbed(42).WithDispatcher(d), dispatchGrid)
	if !bytes.Equal(local, dist) {
		t.Errorf("dispatched run differs:\n--- local ---\n%s\n--- dispatched ---\n%s", local, dist)
	}
	if got := d.calls.Load(); got != 4 {
		t.Errorf("dispatcher saw %d units, want 4", got)
	}
}

// Units the dispatcher fails on compute locally without changing the
// merged bytes — the failover invariant at the seam level.
func TestDispatchPartialFailureFallsBackLocally(t *testing.T) {
	local := campaignJSON(t, NewTestbed(7), dispatchGrid)
	d := &workerDispatcher{fail: func(key string) bool {
		return key == "seam/zoom/2" || key == "seam/webex/3"
	}}
	dist := campaignJSON(t, NewTestbed(7).WithDispatcher(d), dispatchGrid)
	if !bytes.Equal(local, dist) {
		t.Errorf("partial failover changed bytes:\n--- local ---\n%s\n--- dispatched ---\n%s", local, dist)
	}
}

// Garbage from a worker is a fallback, never a corrupted result.
type garbageDispatcher struct{}

func (garbageDispatcher) DispatchUnit(UnitRequest) ([]byte, error) {
	return []byte("not a gob cell"), nil
}

func TestDispatchGarbageResponseFallsBackLocally(t *testing.T) {
	local := campaignJSON(t, NewTestbed(3), dispatchGrid)
	dist := campaignJSON(t, NewTestbed(3).WithDispatcher(garbageDispatcher{}), dispatchGrid)
	if !bytes.Equal(local, dist) {
		t.Error("garbage worker bytes leaked into the merged result")
	}
}

// A tweaked scale that reuses a preset name must never ship to workers:
// the request carries scales by name, so dispatching would silently
// change the workload.
func TestDispatchSkipsTweakedScale(t *testing.T) {
	d := &workerDispatcher{}
	tb := NewTestbed(5).WithDispatcher(d)
	sc := TinyScale
	sc.QoESessions++ // same name, different workload
	if _, err := RunCampaign(tb, dispatchGrid, sc); err != nil {
		t.Fatal(err)
	}
	if got := d.calls.Load(); got != 0 {
		t.Errorf("tweaked scale was dispatched %d times", got)
	}
}

// Platform variants are ordinary campaign values: a grid mixing a base
// platform with one of its variants dispatches every cell and merges to
// the bytes of a local run, and the variant really changes the cell.
func TestDispatchVariantCampaignByteIdentical(t *testing.T) {
	spec := Campaign{Name: "variant", Platforms: []string{"zoom", string(platform.ZoomRelay)}}
	local := campaignJSON(t, NewTestbed(5), spec)
	d := &workerDispatcher{}
	dist := campaignJSON(t, NewTestbed(5).WithDispatcher(d), spec)
	if !bytes.Equal(local, dist) {
		t.Errorf("dispatched variant campaign differs:\n--- local ---\n%s\n--- dispatched ---\n%s", local, dist)
	}
	if got := d.calls.Load(); got != 2 {
		t.Errorf("dispatcher saw %d units, want 2", got)
	}
	res, err := RunCampaign(NewTestbed(5), spec, TinyScale)
	if err != nil {
		t.Fatal(err)
	}
	p2p, relay := res.mustCell("variant/zoom"), res.mustCell("variant/zoom@relay")
	if relay.Platform != "zoom@relay" {
		t.Errorf("variant cell platform = %q", relay.Platform)
	}
	if p2p.DownMbps.Mean == relay.DownMbps.Mean {
		t.Error("zoom@relay cell matches the stock two-party P2P cell")
	}
}

// The store tier sits in front of the dispatcher: a rerun on the same
// testbed dispatches nothing.
func TestDispatchMemoShortCircuits(t *testing.T) {
	d := &workerDispatcher{}
	tb := NewTestbed(11).WithDispatcher(d)
	campaignJSON(t, tb, dispatchGrid)
	first := d.calls.Load()
	campaignJSON(t, tb, dispatchGrid)
	if got := d.calls.Load(); got != first {
		t.Errorf("rerun dispatched %d more units", got-first)
	}
}

// RunCampaignUnit: the worker half must produce exactly the bytes the
// coordinator's store tier would persist for the same cell.
func TestRunCampaignUnitMatchesLocalStoreBytes(t *testing.T) {
	st := &mapStore{m: make(map[string][]byte)}
	tb := NewTestbed(42).WithStore(st).SetParallelism(1)
	if _, err := RunCampaign(tb, dispatchGrid, TinyScale); err != nil {
		t.Fatal(err)
	}
	rc, err := dispatchGrid.resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range rc.cells() {
		want, ok := st.m[tb.cellKey(scaleFingerprint(TinyScale), rc.salt(), cell.key)]
		if !ok {
			t.Fatalf("local run did not persist %q", cell.key)
		}
		got, err := RunCampaignUnit(NewTestbed(42), dispatchGrid, TinyScale, cell.key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("unit %q: worker bytes differ from the local store encoding", cell.key)
		}
	}
}

// RunCampaignUnit consults and fills the worker's store.
func TestRunCampaignUnitUsesStore(t *testing.T) {
	st := &mapStore{m: make(map[string][]byte)}
	key := "seam/zoom/2"
	first, err := RunCampaignUnit(NewTestbed(42).WithStore(st), dispatchGrid, TinyScale, key)
	if err != nil {
		t.Fatal(err)
	}
	if st.puts.Load() == 0 {
		t.Fatal("unit run persisted nothing")
	}
	puts := st.puts.Load()
	again, err := RunCampaignUnit(NewTestbed(42).WithStore(st), dispatchGrid, TinyScale, key)
	if err != nil {
		t.Fatal(err)
	}
	if st.puts.Load() != puts {
		t.Error("warm unit run recomputed and re-persisted")
	}
	if !bytes.Equal(first, again) {
		t.Error("warm unit bytes differ from cold")
	}
}

func TestRunCampaignUnitUnknownKey(t *testing.T) {
	if _, err := RunCampaignUnit(NewTestbed(1), dispatchGrid, TinyScale, "seam/nope/9"); err == nil {
		t.Error("unknown cell key accepted")
	}
	bad := Campaign{} // no name: resolve fails
	if _, err := RunCampaignUnit(NewTestbed(1), bad, TinyScale, "x"); err == nil {
		t.Error("invalid spec accepted")
	}
}

// mapStore is an in-memory CellStore for seam tests.
type mapStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts atomic.Int64
}

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}

func (s *mapStore) Put(key string, data []byte) error {
	s.puts.Add(1)
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = cp
	return nil
}

// replicaBase accepts exactly the canonical replica spellings: any
// alias ("rep=007", "rep=+1", out-of-range K) would give one unit two
// store keys and two shard seeds.
func TestReplicaBase(t *testing.T) {
	cases := []struct {
		key     string
		repeats int
		base    string
		ok      bool
	}{
		{"seam/zoom/rep=0", 3, "seam/zoom", true},
		{"seam/zoom/rep=2", 3, "seam/zoom", true},
		{"seam/zoom/rep=3", 3, "", false},  // out of range
		{"seam/zoom/rep=-1", 3, "", false}, // negative
		{"seam/zoom/rep=007", 8, "", false},
		{"seam/zoom/rep=+1", 8, "", false},
		{"seam/zoom/rep=1x", 8, "", false},
		{"seam/zoom/rep=", 8, "", false},
		{"seam/zoom", 3, "", false},                 // no replica segment
		{"seam/rep=1/rep=1", 2, "seam/rep=1", true}, // only the last segment splits
	}
	for _, c := range cases {
		base, ok := replicaBase(c.key, c.repeats)
		if ok != c.ok || base != c.base {
			t.Errorf("replicaBase(%q, %d) = (%q, %v), want (%q, %v)",
				c.key, c.repeats, base, ok, c.base, c.ok)
		}
	}
}

// The worker half runs replica units: distinct replicas of one cell
// produce distinct bytes (independent seeds), bare cell keys are
// rejected for replicated specs, and replica keys are rejected for
// single-run specs.
func TestRunCampaignUnitReplicas(t *testing.T) {
	spec := dispatchGrid
	spec.Repeats = 2
	rep0, err := RunCampaignUnit(NewTestbed(42), spec, TinyScale, "seam/zoom/2/rep=0")
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := RunCampaignUnit(NewTestbed(42), spec, TinyScale, "seam/zoom/2/rep=1")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rep0, rep1) {
		t.Error("two replicas of one cell computed identical bytes")
	}
	if _, err := RunCampaignUnit(NewTestbed(42), spec, TinyScale, "seam/zoom/2"); err == nil {
		t.Error("bare cell key accepted for a replicated spec")
	}
	if _, err := RunCampaignUnit(NewTestbed(42), spec, TinyScale, "seam/zoom/2/rep=2"); err == nil {
		t.Error("out-of-range replica accepted")
	}
	if _, err := RunCampaignUnit(NewTestbed(42), dispatchGrid, TinyScale, "seam/zoom/2/rep=0"); err == nil {
		t.Error("replica key accepted for a single-run spec")
	}
}
