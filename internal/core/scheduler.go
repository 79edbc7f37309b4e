package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/obs"
	"github.com/vcabench/vcabench/internal/qoe"
)

// This file is the campaign scheduler: the paper's evaluation is a set
// of campaigns made of many independent units — one (platform, scenario)
// lag study per Figs 4-11 column, one (platform, size, motion) cell per
// Figs 12-15 sweep point, one arm per ablation — and real measurement
// fans these across client machines. Here each unit runs on its own
// forked Testbed whose seed is derived from the unit's canonical key,
// so results depend only on (base seed, unit key): the same bytes come
// out whether the campaign runs on one worker or sixteen, and whether a
// unit runs first or last.

// shardSeed derives a unit's seed from the campaign's base seed and the
// unit's canonical key. Hashing the key (rather than, say, a worker or
// loop index) is what makes results independent of scheduling order.
func shardSeed(base int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(key))
	return int64(h.Sum64())
}

// Fork creates an independent testbed for one campaign unit: fresh
// simulator, fresh network, fresh platform instances, seeded by
// shardSeed(tb.seed, unitKey). Instantiated platforms do not carry
// over — a fork always provisions its own. Forks default to serial
// scheduling so nested campaigns don't multiply workers.
func (tb *Testbed) Fork(unitKey string) *Testbed {
	ntb := NewTestbed(shardSeed(tb.seed, unitKey))
	ntb.parallelism = 1
	// Telemetry rides along so nested campaign work on the fork reports
	// into the same registry and tracer; it never influences results.
	ntb.tel = tb.tel
	ntb.em = tb.em
	// Diagnostics arm per unit: the fork gets its own recorder keyed by
	// the unit, so each cell's flight-recorder document is independent
	// of scheduling order and worker count.
	if tb.diag {
		ntb.diag = true
		ntb.armDiag(unitKey)
	}
	return ntb
}

// SetParallelism sets the campaign worker count (0 restores the
// default, runtime.GOMAXPROCS(0)) and returns tb for chaining.
// Negative counts are a programming error and panic; worker count
// never changes results, only wall-clock time.
func (tb *Testbed) SetParallelism(n int) *Testbed {
	if n < 0 {
		panic(fmt.Sprintf("core: SetParallelism(%d): worker count must be >= 1 (or 0 for the default)", n))
	}
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	tb.parallelism = n
	return tb
}

// Parallelism reports the campaign worker count.
func (tb *Testbed) Parallelism() int { return tb.parallelism }

// Unit is one independent campaign shard: a canonical key (which names
// its store entry and derives its seed) and the work itself,
// executed against a testbed forked for that key.
type Unit struct {
	Key string
	Run func(stb *Testbed)
}

// Scheduler fans campaign units across a bounded worker pool. Each unit
// runs on TB.Fork(unit.Key) and the pool has TB.Parallelism() workers;
// the pool size only changes wall-clock time, never results. Run returns
// once every unit has finished, so callers may merge unit outputs
// without further synchronization.
type Scheduler struct {
	TB *Testbed
}

// Run executes every unit and waits for completion. A panicking unit is
// re-panicked on the caller's goroutine after the pool drains.
//
// Each worker (and the serial loop) owns one qoe.Buffers, one
// media.FramePool and one capture.Store and lends all three to every
// fork it runs, one fork at a time, so the scorer's float buffers, the
// QoE host's frame pixel storage and the clients' capture records pass
// from cell to cell without crossing goroutines. Storage comes back
// dirty and every producer overwrites it before reading, so which
// cells ran earlier on a worker never reaches a result.
func (s *Scheduler) Run(units []Unit) {
	if len(units) == 0 {
		return
	}
	workers := s.TB.Parallelism()
	if workers > len(units) {
		workers = len(units)
	}
	type pools struct {
		bufs     *qoe.Buffers
		frames   *media.FramePool
		captures *capture.Store
	}
	newPools := func() pools { return pools{qoe.NewBuffers(), media.NewFramePool(), capture.NewStore()} }
	fork := func(u Unit, p pools) *Testbed {
		stb := s.TB.Fork(u.Key)
		stb.qoeBufs, stb.frames, stb.captures = p.bufs, p.frames, p.captures
		return stb
	}
	if workers <= 1 {
		p := newPools()
		for _, u := range units {
			u.Run(fork(u, p))
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newPools()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
							// Stop dispatching further units; in-flight
							// ones drain, then the caller re-panics.
							next.Store(int64(len(units)))
						}
					}()
					units[i].Run(fork(units[i], p))
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// runMemoized is the cache-aware front of the scheduler: it returns the
// results for keys in the given (canonical) order, resolving each unit
// through the testbed's cell store, then the worker fleet, then local
// compute — in parallel, each on its own fork. Experiments that share
// a campaign (fig12/fig14/fig15 all read the §4.3.1 US sweep; Figs
// 4-11 share four lag campaigns) hit the store on every call after the
// first, and a persistent store (WithStore) extends the sharing across
// processes. sc and salt scope the cell keys (see cellKey); every hit
// is a fresh decode, so no caller can change what a later one reads.
//
// remote, when non-nil, is the tier between the store and local
// compute (see dispatch.go): every still-missing unit is offered to the
// worker fleet concurrently, and only the units the fleet cannot serve
// reach the local scheduler — so a dead or shrinking fleet degrades to
// plain local execution, never to a failed or divergent campaign.
// Served and computed units are persisted alike (the cell encoding is
// canonical, so re-encoding a decoded value reproduces the worker's
// bytes and the store matches a single-machine run's).
//
// parents, when non-nil, maps unit keys to their enclosing trace span
// (the cell or replica envelope RunCampaign opened); every unit then
// records a span tree — unit → {store, dispatch, local-run} — ending
// at whichever tier served it. Telemetry is observational only: out
// never depends on whether it is attached.
func (tb *Testbed) runMemoized(sc Scale, salt string, keys []string, parents map[string]obs.SpanID, run func(stb *Testbed, i int) any, remote func(key string) (any, bool)) []any {
	tr := tb.tracer()
	out := make([]any, len(keys))
	var uspans []obs.SpanID
	starts := make([]int64, len(keys))
	if tr != nil {
		uspans = make([]obs.SpanID, len(keys))
	}
	scaleFP := scaleFingerprint(sc)
	ckeys := make([]string, len(keys))
	var missing []int
	for i, k := range keys {
		starts[i] = tb.now()
		us := tr.Start(parents[k], obs.TierUnit, k)
		if uspans != nil {
			uspans[i] = us
		}
		ckeys[i] = tb.cellKey(scaleFP, salt, k)
		ss := tr.Start(us, obs.TierStore, k)
		v, ok := tb.storeGet(ckeys[i])
		tr.End(ss)
		if ok {
			out[i] = v
			tb.finishUnit(us, "store", starts[i])
			continue
		}
		missing = append(missing, i)
	}
	local := missing
	if remote != nil && len(missing) > 0 {
		local = tb.dispatchRemote(keys, out, missing, remote, uspans, starts)
	}
	units := make([]Unit, len(local))
	for j, i := range local {
		i := i
		units[j] = Unit{Key: keys[i], Run: func(stb *Testbed) {
			ls := tr.Start(spanAt(uspans, i), obs.TierLocalRun, keys[i])
			if tb.em != nil {
				tb.em.inflight.Inc()
			}
			out[i] = run(stb, i)
			if tb.em != nil {
				tb.em.inflight.Dec()
			}
			tr.End(ls)
			tb.finishUnit(spanAt(uspans, i), "local", starts[i])
		}}
	}
	(&Scheduler{TB: tb}).Run(units)
	for _, i := range missing {
		tb.storePut(ckeys[i], out[i])
	}
	return out
}

// dispatchRemote fans the missing units across the dispatcher, all at
// once — the fleet bounds its own per-worker concurrency — filling
// out[i] for each unit a worker served. It returns the indices the
// caller must compute locally, in input order.
func (tb *Testbed) dispatchRemote(keys []string, out []any, missing []int, remote func(key string) (any, bool), uspans []obs.SpanID, starts []int64) []int {
	tr := tb.tracer()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		local []int
	)
	for _, i := range missing {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds := tr.Start(spanAt(uspans, i), obs.TierDispatch, keys[i])
			if tb.em != nil {
				tb.em.inflight.Inc()
			}
			v, ok := remote(keys[i])
			if tb.em != nil {
				tb.em.inflight.Dec()
			}
			tr.End(ds)
			if ok {
				out[i] = v
				tb.finishUnit(spanAt(uspans, i), "dispatch", starts[i])
				return
			}
			mu.Lock()
			local = append(local, i)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Ints(local)
	return local
}
