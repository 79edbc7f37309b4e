package simnet

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
)

// refEvent is one pending event of the reference scheduler.
type refEvent struct {
	at     int64 // ns since Epoch
	order  int   // scheduling order
	id     int
	period int64 // > 0 for a ticker
}

// refSched is the oracle for the event heap: a plain list whose next
// event is found by a stable sort on (time, scheduling order).
type refSched struct {
	now     int64
	order   int
	pending []refEvent
	fired   []firing
}

// firing is one executed event: its id and the clock when it ran.
type firing struct {
	id int
	at int64
}

func (r *refSched) add(id int, at, period int64) {
	r.order++
	r.pending = append(r.pending, refEvent{at: at, order: r.order, id: id, period: period})
}

func (r *refSched) cancel(id int) {
	for i, e := range r.pending {
		if e.id == id {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return
		}
	}
}

func (r *refSched) runUntil(limit int64) {
	for {
		sort.SliceStable(r.pending, func(i, j int) bool {
			a, b := r.pending[i], r.pending[j]
			return a.at < b.at || (a.at == b.at && a.order < b.order)
		})
		if len(r.pending) == 0 || r.pending[0].at > limit {
			break
		}
		e := r.pending[0]
		r.pending = r.pending[1:]
		r.now = e.at
		r.fired = append(r.fired, firing{e.id, e.at})
		if e.period > 0 {
			r.add(e.id, e.at+e.period, e.period)
		}
	}
	if r.now < limit {
		r.now = limit
	}
}

// TestEventHeapMatchesStableSort is the heap's order property: a random
// program of At, AtCall, Every, Cancel and RunUntil over a coarse time
// grid (so most events share a timestamp with others) fires in exactly
// the order of the reference scheduler, at the same instants, with the
// same live-event count after every operation.
func TestEventHeapMatchesStableSort(t *testing.T) {
	const tick = int64(time.Millisecond)
	f := func(prog []uint16) bool {
		s := NewSim(1)
		ref := &refSched{}
		var fired []firing
		record := func(id int) { fired = append(fired, firing{id, s.now}) }
		var handles []*Event // by op index; nil where not cancellable
		var ids []int        // op indexes holding a cancellable handle
		for _, op := range prog {
			arg := int64(op>>3) % 4
			id := len(handles)
			switch op % 5 {
			case 0: // At, 0-3 ticks ahead
				at := s.now + arg*tick
				handles = append(handles, s.At(Epoch.Add(time.Duration(at)), func() { record(id) }))
				ids = append(ids, id)
				ref.add(id, at, 0)
			case 1: // AtCall: not cancellable
				at := s.now + arg*tick
				s.AtCall(Epoch.Add(time.Duration(at)), func(x any) { record(x.(int)) }, id)
				handles = append(handles, nil)
				ref.add(id, at, 0)
			case 2: // Every, period 1-4 ticks
				period := (arg + 1) * tick
				handles = append(handles, s.Every(time.Duration(period), func() { record(id) }))
				ids = append(ids, id)
				ref.add(id, s.now+period, period)
			case 3: // Cancel a cancellable handle, fired or not
				if len(ids) == 0 {
					continue
				}
				k := ids[int(op>>5)%len(ids)]
				handles[k].Cancel()
				ref.cancel(k)
				handles = append(handles, nil)
			case 4: // RunUntil, 0-3 ticks ahead
				limit := s.now + arg*tick
				s.RunUntil(Epoch.Add(time.Duration(limit)))
				ref.runUntil(limit)
				handles = append(handles, nil)
			}
			if s.Pending() != len(ref.pending) || s.now != ref.now {
				return false
			}
		}
		limit := s.now + 10*tick
		s.RunUntil(Epoch.Add(time.Duration(limit)))
		ref.runUntil(limit)
		if len(fired) != len(ref.fired) {
			return false
		}
		for i := range fired {
			if fired[i] != ref.fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestHorizonOverflowPanics: the clock is int64 nanoseconds since
// Epoch, so scheduling past Epoch+MaxInt64 ns (about 292 years) panics,
// as scheduling in the past does, whichever way the time is formed. A
// saturated serialization time is the one way a run can get there.
func TestHorizonOverflowPanics(t *testing.T) {
	horizon := Epoch.Add(time.Duration(math.MaxInt64))
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != errHorizon {
				t.Errorf("%s: recovered %v, want the horizon panic", name, r)
			}
		}()
		f()
	}
	s := NewSim(1)
	s.At(horizon, func() {}) // the horizon itself is representable
	mustPanic("At", func() { s.At(horizon.Add(time.Nanosecond), func() {}) })
	mustPanic("AtCall", func() { s.AtCall(horizon.Add(time.Hour), func(any) {}, nil) })
	s.RunFor(time.Second)
	mustPanic("After", func() { s.After(math.MaxInt64, func() {}) })
	mustPanic("Every", func() { s.Every(math.MaxInt64, func() {}) })

	// RunUntil past the horizon is not scheduling: it runs everything
	// and leaves the clock at the horizon.
	s.RunUntil(horizon.Add(time.Hour))
	if s.Since() != math.MaxInt64 || s.Pending() != 0 {
		t.Fatalf("after RunUntil past the horizon: clock +%v, %d pending", s.Since(), s.Pending())
	}

	s2, n := newTestNet(1)
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast, UplinkBps: 1, QueueBytes: math.MaxInt32})
	n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2})
	s2.RunFor(time.Second)
	mustPanic("saturated txDuration", func() {
		a.Send(&Packet{To: Addr{"b", 5}, Size: math.MaxInt32 - WireOverhead})
	})
}
