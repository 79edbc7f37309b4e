// Package simnet is a deterministic, discrete-event, packet-level network
// simulator. It provides the substrate the paper obtained from Azure: a set
// of geographically placed nodes with access links (bandwidth, queueing,
// loss, optional token-bucket traffic shaping, as with tc/ifb) joined by an
// over-provisioned core whose latency follows the geo.PathModel.
//
// Everything is driven by a virtual clock; runs are reproducible
// byte-for-byte for a given seed. All application-visible time stamps come
// from Sim.Now, which plays the role of the stratum-1-synchronized clocks
// that major clouds provide (paper §3.1): every node shares one perfectly
// synchronized clock, so sender/receiver packet-timestamp correlation is
// exact, as the paper's methodology assumes.
package simnet

import (
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// Epoch is the instant at which every simulation starts. The specific date
// matches the paper's measurement campaign (April 2021).
var Epoch = time.Date(2021, time.April, 1, 0, 0, 0, 0, time.UTC)

// Event is a scheduled callback. Cancel prevents a pending event from
// firing; cancelling an already-fired event is a no-op.
//
// Events handed out by At/After live in append-only slabs: one Sim
// hands out each slab slot once, so a stale handle can never observe
// (or cancel) an unrelated later event of its Sim. A Sim built on a
// Store (NewSimOn) gives its slabs back when it is released (Release),
// and a later Sim on that store hands the slots out again, so a handle
// is valid only until its Sim is released. Internal payload events
// (pcall) are recycled through a free-list instead — those are never
// exposed, so no stale handle to them can exist.
type Event struct {
	at  int64 // nanoseconds since Epoch: the heap key, with seq
	seq uint64
	fn  func()
	// Payload-call form: pcall(parg) with a package-level function and a
	// pointer argument, so internal per-packet scheduling costs no
	// closure allocation. Exactly one of fn/pcall is set.
	pcall     func(any)
	parg      any
	sim       *Sim
	cancelled bool
	recycle   bool // internal payload event: freed back to sim after firing
	index     int  // heap index, -1 when popped
}

// Cancel prevents the event from firing. Cancelling keeps the entry in
// the queue (it is discarded lazily when reached) but removes it from
// the live-event count immediately, so Pending and the step probe never
// overcount cancelled work.
func (e *Event) Cancel() {
	if e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 && e.sim != nil {
		e.sim.live--
	}
}

// When returns the virtual time the event is scheduled for. For a ticker
// handle from Every this is the next scheduled tick; after the handle is
// cancelled (or, for one-shot events, after firing) it reports the last
// scheduled time.
func (e *Event) When() time.Time { return Epoch.Add(time.Duration(e.at)) }

// before is the queue order: time, then scheduling order. The pair is
// unique per event, so the order is total and firing order does not
// depend on the heap's layout.
func (e *Event) before(f *Event) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

// eventQueue is a binary min-heap on (at, seq). Every queued event
// records its slot in index; pop sets it to -1, which is how Cancel
// tells a queued event from a fired one.
type eventQueue []*Event

func (q *eventQueue) push(e *Event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		up := h[p]
		if !e.before(up) {
			break
		}
		h[i], up.index = up, i
		i = p
	}
	h[i], e.index = e, i
	*q = h
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i], h[c].index = h[c], i
			i = c
		}
		h[i], last.index = last, i
	}
	top.index = -1
	*q = h
	return top
}

// eventChunkSize is the slab granularity: one allocation serves this many
// scheduled events. A Sim on private storage abandons chunks to the GC
// as their events die (events die roughly in time order, so chunks
// drain front to back).
const eventChunkSize = 256

// maxStoreSlabs bounds the slabs a Sim keeps for its Store, about 1.2 MB
// of events; it abandons later ones to the GC as a private Sim does, so
// a long simulation neither holds all its events to its end nor leaves
// them parked after it.
const maxStoreSlabs = 64

// Store is the storage a Sim and its Networks run on, passed from Sim
// to Sim: the event slabs, the backing arrays of the payload-event free
// list and of the event queue, and the packet free list behind
// Network.NewPacket. It has one owner at a time: a Sim built on it
// (NewSimOn) takes everything it parks, and Release hands that back
// zeroed, so parked storage pins no callback, argument or payload. A
// Sim writes every slot whole before using it, so what a store parks
// never reaches a result.
type Store struct {
	slabs [][]Event  // each with len 0
	free  []*Event   // len 0
	queue eventQueue // len 0
	pkts  []*Packet
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Parked returns every event slot of the slabs s parks and the packets
// it parks.
func (s *Store) Parked() (events []*Event, packets []*Packet) {
	for _, slab := range s.slabs {
		slab = slab[:cap(slab)]
		for i := range slab {
			events = append(events, &slab[i])
		}
	}
	return events, s.pkts
}

// Sim is the discrete-event engine: a virtual clock plus an event queue.
type Sim struct {
	// now is the clock in nanoseconds since Epoch; nowT is the same
	// instant as a time.Time, kept for Now.
	now    int64
	nowT   time.Time
	queue  eventQueue
	seq    uint64
	seed   int64
	nsteps uint64
	// live counts scheduled events that have neither fired nor been
	// cancelled — the queue depth the step probe and Pending report.
	// (len(queue) would overcount: cancelled events are discarded
	// lazily when they reach the front.)
	live int
	// chunk is the current event slab (see eventChunkSize); free is the
	// free-list of recycled internal payload events; pkts is the packet
	// free-list behind Network.NewPacket, shared by the Sim's Networks.
	chunk []Event
	free  []*Event
	pkts  []*Packet
	// store, when set, is the Store the Sim took its storage from and
	// gives it back to (Release): spare holds the parked slabs it has
	// not used yet, and slabs every slab it has filled, up to
	// maxStoreSlabs. released marks a Sim that Release ended.
	store    *Store
	spare    [][]Event
	slabs    [][]Event
	released bool
	// stepProbe, when set, observes every executed event: the virtual
	// instant it ran at and the number of live events still pending after
	// it was popped. Nil (the default) costs one branch per step.
	stepProbe func(at time.Time, depth int)
}

// SetStepProbe installs (or removes, with nil) the event-queue observer
// — the flight-recorder seam. The probe fires in sim time, inside the
// deterministic event loop, so recording it cannot perturb the run.
func (s *Sim) SetStepProbe(p func(at time.Time, depth int)) { s.stepProbe = p }

// NewSim creates a simulator with its clock at Epoch. All randomness in
// the simulation derives from seed.
func NewSim(seed int64) *Sim { return NewSimOn(seed, nil) }

// NewSimOn is NewSim with the simulator's events and its Networks'
// packets drawn from store (see Store) until Release; nil keeps them
// private. Which storage a Sim runs on never changes what it does.
func NewSimOn(seed int64, store *Store) *Sim {
	s := &Sim{
		nowT: Epoch,
		seed: seed,
	}
	if store != nil {
		s.store = store
		s.spare, s.free, s.queue, s.pkts = store.slabs, store.free, store.queue, store.pkts
		*store = Store{}
	}
	return s
}

// errReleased is the panic for running or scheduling on a Sim after
// Release.
const errReleased = "simnet: Sim used after Release"

// Release ends the Sim and hands its storage back to the Store it was
// built on (NewSimOn), zeroed. Pending events never fire; stepping,
// running or scheduling on the Sim panics from then on, and every
// handle At and After returned is void, since a later Sim on the store
// hands its slot out again. Release on private storage only ends the
// Sim; a second Release does nothing.
func (s *Sim) Release() {
	if s.released {
		return
	}
	s.released = true
	clear(s.queue[:cap(s.queue)])
	clear(s.free[:cap(s.free)])
	clear(s.pkts[len(s.pkts):cap(s.pkts)]) // packets handed out since parking
	// Only a Sim on a store keeps slabs.
	for _, slab := range s.slabs {
		clear(slab[:cap(slab)])
		s.spare = append(s.spare, slab[:0])
	}
	if st := s.store; st != nil {
		st.slabs, st.free, st.queue, st.pkts = s.spare, s.free[:0], s.queue[:0], s.pkts
	}
	s.queue, s.free, s.pkts, s.chunk, s.spare, s.slabs = nil, nil, nil, nil, nil, nil
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.nowT }

// Since returns the virtual time elapsed since Epoch.
func (s *Sim) Since() time.Duration { return time.Duration(s.now) }

// setNow moves the clock to at nanoseconds since Epoch.
func (s *Sim) setNow(at int64) {
	s.now = at
	s.nowT = Epoch.Add(time.Duration(at))
}

// errHorizon is the panic for an event time whose offset from Epoch
// does not fit int64 nanoseconds (about 292 years).
const errHorizon = "simnet: event time beyond the int64-nanosecond horizon"

// keyOf converts an absolute time to nanoseconds since Epoch. It panics
// on a time past the horizon; a time before Epoch saturates low and is
// then rejected by schedule as a time in the past.
func keyOf(t time.Time) int64 {
	d := t.Sub(Epoch) // saturates on overflow
	if d == math.MaxInt64 && !Epoch.Add(d).Equal(t) {
		panic(errHorizon)
	}
	return int64(d)
}

// later returns the clock key d after at; d must be >= 0. It panics
// past the horizon.
func later(at int64, d time.Duration) int64 {
	k := at + int64(d)
	if k < at {
		panic(errHorizon)
	}
	return k
}

// Fork returns an independent deterministic random stream derived from the
// simulation seed and the given name. Two forks with different names are
// statistically independent; the same name always yields the same stream.
func (s *Sim) Fork(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(s.seed ^ int64(h.Sum64())))
}

// alloc returns a zeroed Event from the current slab chunk.
func (s *Sim) alloc() *Event {
	if len(s.chunk) == cap(s.chunk) {
		s.newChunk()
	}
	s.chunk = append(s.chunk, Event{sim: s})
	return &s.chunk[len(s.chunk)-1]
}

// newChunk starts a new slab: a spare one the store parked, or a new
// one, kept for the store while it has room (see maxStoreSlabs).
func (s *Sim) newChunk() {
	if n := len(s.spare); n > 0 {
		s.chunk = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
	} else {
		s.chunk = make([]Event, 0, eventChunkSize)
	}
	if s.store != nil && len(s.slabs) < maxStoreSlabs {
		s.slabs = append(s.slabs, s.chunk)
	}
}

// schedule assigns the next sequence number and queues e at clock key
// at. Scheduling in the past, or on a released Sim, is a programming
// error and panics.
func (s *Sim) schedule(e *Event, at int64) {
	if s.released {
		panic(errReleased)
	}
	if at < s.now {
		panic("simnet: scheduling event in the past")
	}
	s.seq++
	e.at = at
	e.seq = s.seq
	s.queue.push(e)
	s.live++
}

// At schedules fn at absolute virtual time t. Scheduling in the past, or
// past the int64-nanosecond horizon, is a programming error and panics.
func (s *Sim) At(t time.Time, fn func()) *Event { return s.at(keyOf(t), fn) }

// at is At at clock key at.
func (s *Sim) at(at int64, fn func()) *Event {
	e := s.alloc()
	e.fn = fn
	s.schedule(e, at)
	return e
}

// AtCall schedules fn(arg) at absolute virtual time t. It is the
// zero-allocation scheduling form for per-packet work: with fn a
// package-level function and arg a pointer, neither the call nor the
// event costs a heap allocation (the event is recycled after firing).
// No handle is returned — AtCall work cannot be cancelled, which is
// exactly what makes recycling the event safe.
func (s *Sim) AtCall(t time.Time, fn func(any), arg any) { s.atCall(keyOf(t), fn, arg) }

// atCall is AtCall at clock key at.
func (s *Sim) atCall(at int64, fn func(any), arg any) {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = s.alloc()
		e.recycle = true
	}
	e.pcall = fn
	e.parg = arg
	s.schedule(e, at)
}

// After schedules fn after virtual duration d (d < 0 is treated as 0).
func (s *Sim) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.at(later(s.now, d), fn)
}

// Every schedules fn every period, starting after the first period, until
// the returned Event is cancelled. fn observes the tick time via Now.
//
// The handle is the scheduled event itself, rescheduled by its own tick:
// When() reports the next pending tick, and Cancel removes the ticker
// from the live queue immediately (a cancelled ticker consumes no
// further steps).
func (s *Sim) Every(period time.Duration, fn func()) *Event {
	if period <= 0 {
		panic("simnet: Every with non-positive period")
	}
	// Long-lived and caller-held, so allocated alone rather than pinning
	// a slab chunk for the ticker's whole lifetime.
	ctl := &Event{sim: s, index: -1}
	ctl.fn = func() {
		fn()
		if !ctl.cancelled {
			s.schedule(ctl, later(s.now, period))
		}
	}
	s.schedule(ctl, later(s.now, period))
	return ctl
}

// Step executes the single earliest pending event. It reports whether an
// event was executed.
func (s *Sim) Step() bool {
	if s.released {
		panic(errReleased)
	}
	for len(s.queue) > 0 {
		e := s.queue.pop()
		if e.cancelled {
			continue
		}
		s.setNow(e.at)
		s.nsteps++
		s.live--
		if s.stepProbe != nil {
			s.stepProbe(s.nowT, s.live)
		}
		if e.pcall != nil {
			fn, arg := e.pcall, e.parg
			if e.recycle {
				// Release before the call: the event is off the queue, so
				// the call may immediately reuse it for its own scheduling.
				e.pcall, e.parg = nil, nil
				s.free = append(s.free, e)
			}
			fn(arg)
		} else {
			e.fn()
		}
		return true
	}
	return false
}

// Run drains the event queue completely.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events up to and including time t, then advances the
// clock to exactly t. Events scheduled after t remain pending. A t past
// the int64-nanosecond horizon runs every pending event and leaves the
// clock at the horizon.
func (s *Sim) RunUntil(t time.Time) {
	if s.released {
		panic(errReleased)
	}
	limit := int64(t.Sub(Epoch)) // saturates on overflow
	for len(s.queue) > 0 {
		// Peek.
		next := s.queue[0]
		if next.cancelled {
			s.queue.pop()
			continue
		}
		if next.at > limit {
			break
		}
		s.Step()
	}
	if s.now < limit {
		s.setNow(limit)
	}
}

// RunFor executes events for virtual duration d from the current time.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.nowT.Add(d)) }

// Steps returns the number of events executed so far (for diagnostics and
// benchmarks).
func (s *Sim) Steps() uint64 { return s.nsteps }

// Pending returns the number of live events still queued. Cancelled
// events awaiting lazy discard are not counted.
func (s *Sim) Pending() int { return s.live }
