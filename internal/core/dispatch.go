package core

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the dispatch seam of the campaign engine — the
// coordinator half of distributed execution. The paper's campaigns are
// embarrassingly parallel (the authors fanned real measurements across
// many client machines), and every cell's seed derives from its
// canonical unit key, so a cell computes to the same bytes on any
// machine. A Dispatcher (implemented by internal/cluster.Pool over
// vcabenchd's POST /units endpoint) exploits that: runMemoized hands it
// the units that neither the memo table nor the cell store holds, and
// any unit the fleet cannot serve — a dead worker, a timeout, an
// undecodable response — transparently falls back to local execution.
// Placement can never leak into results: the merged CampaignResult is
// byte-identical to a single-machine run for any fleet size, worker
// mix or failure pattern.

// UnitRequest identifies one campaign cell for out-of-process
// execution: the declarative spec it belongs to, a preset scale name,
// the campaign's base seed and the cell's canonical unit key. The
// executing side derives everything else (the cell's coordinates, its
// shard seed, its store key) exactly as a local run would.
type UnitRequest struct {
	Spec  Campaign `json:"spec"`
	Scale string   `json:"scale"`
	Seed  int64    `json:"seed"`
	Key   string   `json:"key"`
	// Diag asks the worker to arm the flight recorder for this unit, so
	// the returned cell carries the same Diag document a local
	// diagnostics-armed run would compute.
	Diag bool `json:"diag,omitempty"`
}

// Dispatcher executes campaign units out of process. DispatchUnit
// returns the cell's canonical encoding — the same bytes
// RunCampaignUnit produces and the cell store persists. Any error is
// treated as "compute locally", never as a failed campaign, so
// implementations should exhaust their own retries first.
// Implementations must be safe for concurrent use: the scheduler
// dispatches every missing unit of a campaign at once.
type Dispatcher interface {
	DispatchUnit(req UnitRequest) ([]byte, error)
}

// WithDispatcher attaches a unit dispatcher and returns tb for
// chaining. Dispatch applies only to campaign cells (RunCampaign and
// the campaign-backed experiments); lag figures and ablations compute
// in-process. Fleet topology and failures never change rendered bytes,
// only wall-clock time.
func (tb *Testbed) WithDispatcher(d Dispatcher) *Testbed {
	tb.dispatcher = d
	return tb
}

// remoteRunner builds the remote-execution closure runMemoized fans
// missing units through, or nil when this run must stay local: no
// dispatcher attached, or a tweaked scale that merely reuses a preset's
// name (a UnitRequest carries scales by name, so shipping it would
// silently change the workload).
func (tb *Testbed) remoteRunner(spec Campaign, sc Scale) func(key string) (any, bool) {
	if tb.dispatcher == nil {
		return nil
	}
	if preset, ok := ScaleByName(sc.Name); !ok || preset != sc {
		return nil
	}
	d := tb.dispatcher
	seed := tb.seed
	return func(key string) (any, bool) {
		data, err := d.DispatchUnit(UnitRequest{Spec: spec, Scale: sc.Name, Seed: seed, Key: key, Diag: tb.diag})
		if err != nil {
			return nil, false
		}
		v, err := decodeCell(data)
		if err != nil {
			// A worker that returns undecodable bytes is as good as a
			// dead one: recompute locally, never fail the campaign.
			return nil, false
		}
		return v, true
	}
}

// replicaBase splits a replica unit key into its cell key, requiring
// the canonical form "<cellKey>/rep=K" with K in [0, repeats) and no
// leading zeros or signs — a non-canonical spelling ("rep=007",
// "rep=+1") must not alias a canonical unit, because the key derives
// the shard seed and names the store entry. ok is false when the key
// carries no well-formed replica segment for the given factor.
func replicaBase(key string, repeats int) (base string, ok bool) {
	i := strings.LastIndex(key, "/rep=")
	if i < 0 {
		return "", false
	}
	num := key[i+len("/rep="):]
	k, err := strconv.Atoi(num)
	if err != nil || strconv.Itoa(k) != num || k < 0 || k >= repeats {
		return "", false
	}
	return key[:i], true
}

// RunCampaignUnit executes exactly one unit of a campaign spec — a
// cell, or one "<cellKey>/rep=K" replica of a replicated campaign —
// and returns its canonical encoding: the worker half of distributed
// execution, behind vcabenchd's POST /units endpoint. The unit runs on
// a fork seeded from (tb seed, key) exactly as a local campaign run
// would, so the returned bytes decode to the same value a
// single-machine run computes. When tb carries a store, the unit is
// looked up before computing and persisted after, sharing the worker's
// cache with its own campaigns and with repeated unit requests.
//
// Pass a fresh Testbed per call: the memo table is deliberately not
// consulted, because renderers sort memoized samples in place and a
// post-render encoding would drift from what a cold run persists.
func RunCampaignUnit(tb *Testbed, spec Campaign, sc Scale, key string) ([]byte, error) {
	rc, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	// A replicated campaign schedules only replica keys, a single-run
	// campaign only bare cell keys; the two key shapes never mix for
	// one spec, so the replica segment is required exactly when
	// repeats > 1.
	cellKey := key
	if rc.repeats > 1 {
		base, ok := replicaBase(key, rc.repeats)
		if !ok {
			return nil, fmt.Errorf("core: campaign %q (repeats=%d) has no unit %q", rc.name, rc.repeats, key)
		}
		cellKey = base
	}
	cells := rc.cells()
	var cell *campaignCell
	for i := range cells {
		if cells[i].key == cellKey {
			cell = &cells[i]
			break
		}
	}
	if cell == nil {
		return nil, fmt.Errorf("core: campaign %q has no cell %q", rc.name, key)
	}
	salt := rc.salt()
	scaleFP := scaleFingerprint(sc)
	if v, ok := tb.storeGet(scaleFP, salt, key); ok {
		// The cell encoding is canonical (decodeCell accepts only bytes
		// that encodeCell reproduces), so re-encoding the decoded value
		// returns the stored bytes exactly.
		return encodeCell(v)
	}
	var v any = runCell(tb.Fork(key), *cell, sc)
	data, err := encodeCell(v)
	if err != nil {
		return nil, fmt.Errorf("core: encode cell %q: %w", key, err)
	}
	tb.storePut(scaleFP, salt, key, v)
	return data, nil
}
