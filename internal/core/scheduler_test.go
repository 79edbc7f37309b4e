package core

import (
	"bytes"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/platform"
)

func TestShardSeedDerivation(t *testing.T) {
	if shardSeed(42, "lag/fig4/zoom") != shardSeed(42, "lag/fig4/zoom") {
		t.Error("shard seed not stable for the same (base, key)")
	}
	if shardSeed(42, "lag/fig4/zoom") == shardSeed(42, "lag/fig4/webex") {
		t.Error("different keys should derive different seeds")
	}
	if shardSeed(42, "lag/fig4/zoom") == shardSeed(43, "lag/fig4/zoom") {
		t.Error("different base seeds should derive different shard seeds")
	}
}

func TestForkIndependence(t *testing.T) {
	tb := NewTestbed(42)
	a, b := tb.Fork("unit-a"), tb.Fork("unit-a")
	if a.seed != b.seed {
		t.Error("same key should fork the same seed")
	}
	if a.seed == tb.Fork("unit-b").seed {
		t.Error("different keys should fork different seeds")
	}
	if a.Sim == tb.Sim || a.Net == tb.Net {
		t.Error("fork must not share the parent's simulator or network")
	}
	if a.Parallelism() != 1 {
		t.Errorf("fork parallelism = %d, want 1 (no nested fan-out)", a.Parallelism())
	}
}

func TestSetParallelism(t *testing.T) {
	tb := NewTestbed(1)
	if tb.Parallelism() < 1 {
		t.Errorf("default parallelism = %d, want >= 1", tb.Parallelism())
	}
	if got := tb.SetParallelism(4).Parallelism(); got != 4 {
		t.Errorf("SetParallelism(4) = %d", got)
	}
	if got := tb.SetParallelism(0).Parallelism(); got < 1 {
		t.Errorf("SetParallelism(0) should restore the default, got %d", got)
	}
}

// The scheduler must run every unit exactly once, on a fork seeded by
// the unit key, regardless of worker count.
func TestSchedulerRunsEveryUnitOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		tb := NewTestbed(7).SetParallelism(workers)
		var mu sync.Mutex
		seen := map[string]int64{}
		var units []Unit
		for _, key := range []string{"u1", "u2", "u3", "u4", "u5", "u6", "u7"} {
			key := key
			units = append(units, Unit{Key: key, Run: func(stb *Testbed) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := seen[key]; dup {
					t.Errorf("workers=%d: unit %s ran twice", workers, key)
				}
				seen[key] = stb.seed
			}})
		}
		(&Scheduler{TB: tb}).Run(units)
		if len(seen) != len(units) {
			t.Fatalf("workers=%d: ran %d units, want %d", workers, len(seen), len(units))
		}
		for key, seed := range seen {
			if want := shardSeed(7, key); seed != want {
				t.Errorf("workers=%d: unit %s got seed %d, want shardSeed %d", workers, key, seed, want)
			}
		}
	}
}

// kitOf returns the pools a scheduler lent stb.
func kitOf(stb *Testbed) pools {
	return pools{stb.qoeBufs, stb.frames, stb.captures, stb.packets}
}

// A panicking unit re-panics on the caller's goroutine, and its worker
// drops its kit: the pools lent to the unit are never parked, so no
// later Run, serial or parallel, lends them again.
func TestSchedulerPropagatesPanic(t *testing.T) {
	tb := NewTestbed(8).SetParallelism(4)
	var bad pools
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want \"boom\"", r)
			}
		}()
		(&Scheduler{TB: tb}).Run([]Unit{
			{Key: "ok", Run: func(*Testbed) {}},
			{Key: "bad", Run: func(stb *Testbed) {
				bad = kitOf(stb)
				panic("boom")
			}},
			{Key: "ok2", Run: func(*Testbed) {}},
			{Key: "ok3", Run: func(*Testbed) {}},
			{Key: "ok4", Run: func(*Testbed) {}},
		})
	}()
	if bad.bufs == nil || bad.frames == nil || bad.captures == nil || bad.packets == nil {
		t.Fatalf("the panicking unit ran without a full kit: %+v", bad)
	}
	shares := func(p pools) bool {
		return p.bufs == bad.bufs || p.frames == bad.frames || p.captures == bad.captures || p.packets == bad.packets
	}
	parkedKits.Lock()
	for _, p := range parkedKits.free {
		if shares(p) {
			t.Error("the panicking unit's kit was parked")
		}
	}
	parkedKits.Unlock()
	for _, workers := range []int{4, 1} {
		var mu sync.Mutex
		units := make([]Unit, 8)
		for i := range units {
			units[i] = Unit{Key: "after/" + strconv.Itoa(i), Run: func(stb *Testbed) {
				mu.Lock()
				defer mu.Unlock()
				if shares(kitOf(stb)) {
					t.Errorf("workers=%d: a later Run lent the panicking unit's pools", workers)
				}
			}}
		}
		(&Scheduler{TB: NewTestbed(8).SetParallelism(workers)}).Run(units)
	}
}

// runMemoized must compute each key once and serve repeats from the
// testbed's cell store — including under concurrent access to it — as
// fresh decodes, so a caller that changes a result cannot change what
// a later caller reads.
func TestRunMemoized(t *testing.T) {
	tb := NewTestbed(9).SetParallelism(4)
	var calls atomic.Int64
	seedKind := func(seed int64) platform.Kind { return platform.Kind(strconv.FormatInt(seed, 10)) }
	run := func(stb *Testbed, i int) any {
		calls.Add(1)
		return &LagStudyResult{Kind: seedKind(stb.seed)}
	}
	keys := []string{"a", "b", "c"}
	first := tb.runMemoized(TinyScale, "", keys, nil, run, nil)
	again := tb.runMemoized(TinyScale, "", keys, nil, run, nil)
	if calls.Load() != int64(len(keys)) {
		t.Errorf("ran %d units, want %d (store miss on repeat?)", calls.Load(), len(keys))
	}
	for i, k := range keys {
		if got := first[i].(*LagStudyResult).Kind; got != seedKind(shardSeed(9, k)) {
			t.Errorf("unit %q did not run on its keyed fork", k)
		}
		checkFreshDecode(t, first[i], again[i])
	}
	first[0].(*LagStudyResult).Kind = "changed"
	if got := tb.runMemoized(TinyScale, "", keys[:1], nil, run, nil)[0].(*LagStudyResult).Kind; got != seedKind(shardSeed(9, "a")) {
		t.Errorf("a caller's change reached the store: read Kind %q", got)
	}
	// Partial overlap: only the new key runs.
	tb.runMemoized(TinyScale, "", []string{"b", "d"}, nil, run, nil)
	if calls.Load() != int64(len(keys))+1 {
		t.Errorf("partial-overlap call ran %d total units, want %d", calls.Load(), len(keys)+1)
	}
}

// checkFreshDecode checks that again, a store hit, is a new value (not
// the first result's pointer) with the first result's encoding.
func checkFreshDecode(t *testing.T, first, again any) {
	t.Helper()
	if first == again {
		t.Error("store hit returned the cached value itself, not a fresh decode")
	}
	a, err := encodeCell(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeCell(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("store hit encodes differently from the first result")
	}
}

// checkRepeatHit runs repeat on a testbed reporting into tel and checks
// that it was a store-tier hit: no new local-run span, and a fresh
// decode of first.
func checkRepeatHit(t *testing.T, tel *obs.Telemetry, first any, repeat func() any) {
	t.Helper()
	runs := tel.Tracer.CountTier(obs.TierLocalRun)
	again := repeat()
	if got := tel.Tracer.CountTier(obs.TierLocalRun); got != runs {
		t.Errorf("repeat ran %d units locally, want 0", got-runs)
	}
	checkFreshDecode(t, first, again)
}

// Campaign sharing: figures drawn from the same campaign (fig4 lag CDFs
// and fig8 RTT tables both read the fig4 scenario's lag studies) must
// reuse stored units instead of re-running them.
func TestCampaignMemoSharing(t *testing.T) {
	tel := manualTelemetry()
	tb := NewTestbed(42).SetParallelism(2).WithTelemetry(tel)
	sce := LagScenarios()[0]
	first := lagStudyAll(tb, TinyScale, sce, lagUnits(sce, platform.Kinds...)...)
	checkRepeatHit(t, tel, first[0], func() any {
		return lagStudyAll(tb, TinyScale, sce, lagUnits(sce, platform.Zoom)...)[0]
	})
}
