package simnet

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/geo"
)

// storeLog is what a storeProgram observes: every firing, delivery and
// the live-event count after every operation.
type storeLog struct {
	fired   []storeFiring
	pending []int
	steps   uint64
}

// storeFiring is one executed event or delivered packet. seq is the
// event's scheduling sequence number, -1 for an AtCall event (no handle
// reaches it) and for a delivery.
type storeFiring struct {
	id  int
	at  int64
	seq int64
}

// storeProgram runs a seeded random program on s and a network on it:
// At and After with handles (After far enough ahead to stay pending
// across operations, as probe timeouts do), AtCall, Every, Cancel of
// any handle, fired or not, pooled packets, some without a payload,
// sent over a lossy rate-limited link, and RunUntil. It leaves events pending at the end.
func storeProgram(s *Sim, seed int64) storeLog {
	const tick = time.Millisecond
	var log storeLog
	rng := rand.New(rand.NewSource(seed))
	n := NewNetwork(s, NetworkConfig{})
	a := n.AddNode(NodeConfig{Name: "a", Region: geo.USEast, UplinkBps: 20_000_000, LossProb: 0.05})
	b := n.AddNode(NodeConfig{Name: "b", Region: geo.USEast2, DownlinkBps: 10_000_000, QueueBytes: 8 * 1024})
	b.Bind(5, func(p *Packet) {
		id := -1 // sent without a payload
		if p.Payload != nil {
			id = p.Payload.(int)
		}
		log.fired = append(log.fired, storeFiring{id, s.now, -1})
	})
	onHandle := func(id int, h **Event) func() {
		return func() { log.fired = append(log.fired, storeFiring{id, (*h).at, int64((*h).seq)}) }
	}
	var handles []*Event
	for id := 0; id < 3000; id++ {
		arg := time.Duration(rng.Intn(4))
		switch rng.Intn(7) {
		case 0:
			h := new(*Event)
			*h = s.At(s.Now().Add(arg*tick), onHandle(id, h))
			handles = append(handles, *h)
		case 1:
			h := new(*Event)
			*h = s.After(arg*50*tick, onHandle(id, h))
			handles = append(handles, *h)
		case 2:
			s.AtCall(s.Now().Add(arg*tick), func(x any) {
				log.fired = append(log.fired, storeFiring{x.(int), s.now, -1})
			}, id)
		case 3:
			h := new(*Event)
			*h = s.Every((arg+1)*tick, onHandle(id, h))
			handles = append(handles, *h)
		case 4:
			if len(handles) > 0 {
				handles[rng.Intn(len(handles))].Cancel()
			}
		case 5:
			for k := 0; k <= int(arg); k++ {
				pkt := n.NewPacket()
				pkt.To = Addr{Node: "b", Port: 5}
				pkt.Size = 200 + rng.Intn(1200)
				if k%2 == 0 {
					pkt.Payload = id
				}
				a.Send(pkt)
			}
		case 6:
			s.RunUntil(s.Now().Add(arg * tick))
		}
		log.pending = append(log.pending, s.Pending())
	}
	log.steps = s.Steps()
	return log
}

// scribbleStore overwrites everything st parks, the free-list and queue
// arrays past their length included, with junk that fails loudly if
// read: events that panic when fired, stamped in the past and marked
// cancelled, pooled packets bound for nowhere with a continuation that
// panics, and generators advanced, reseeded with junk and left
// mid-way through a Read.
func scribbleStore(st *Store) {
	junk := &Event{at: -1, seq: 1 << 60, fn: func() { panic("junk event fired") },
		pcall: func(any) { panic("junk call fired") }, parg: "junk", sim: NewSim(0), cancelled: true, recycle: true, index: 7}
	events, packets, rands := st.Parked()
	scribbleRands(rands)
	for _, e := range events {
		*e = *junk
	}
	for i := range st.free[:cap(st.free)] {
		st.free[:cap(st.free)][i] = junk
	}
	for i := range st.queue[:cap(st.queue)] {
		st.queue[:cap(st.queue)][i] = junk
	}
	for _, p := range packets {
		*p = Packet{From: Addr{"junk", 1}, To: Addr{"junk", 2}, Size: 1 << 20, Payload: "junk",
			SentAt: Epoch.Add(-time.Hour), ArrivedAt: Epoch.Add(-time.Hour), pooled: true,
			then: func(*Packet) { panic("junk continuation") }}
	}
}

// TestWarmStoreRunsLikeFreshSim: a Sim on a store that an earlier Sim
// warmed and that was then filled with junk fires the same events at
// the same (at, seq), delivers the same packets at the same instants,
// and reports the same Pending after every operation and the same
// Steps as a Sim on private storage — and it runs on the slabs the
// store parked.
func TestWarmStoreRunsLikeFreshSim(t *testing.T) {
	st := NewStore()
	warm := NewSimOn(3, st)
	storeProgram(warm, 99)
	warm.Release()
	events, packets, rands := st.Parked()
	if len(events) == 0 || len(packets) == 0 || cap(st.free) == 0 || cap(st.queue) == 0 || len(rands) == 0 {
		t.Fatalf("the store parks %d events, %d packets, a free list of %d, a queue of %d and %d generators; nothing to reuse",
			len(events), len(packets), cap(st.free), cap(st.queue), len(rands))
	}
	scribbleStore(st)
	for _, seed := range []int64{1, 2, 3} {
		want := storeProgram(NewSim(seed), seed)
		s := NewSimOn(seed, st)
		if len(st.slabs) != 0 || st.free != nil || st.queue != nil || st.pkts != nil || st.rands != nil {
			t.Fatal("NewSimOn left storage in the store")
		}
		got := storeProgram(s, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: a Sim on a junk-filled warm store ran differently from a fresh one (%d vs %d firings, %d vs %d steps)",
				seed, len(got.fired), len(want.fired), got.steps, want.steps)
		}
		if seed == 1 && &s.slabs[0][:1][0] != events[len(events)-eventChunkSize] {
			t.Error("the Sim did not start on the slab its store parked last")
		}
		s.Release()
		scribbleStore(st)
	}
}

// TestReleasedSimPanics: once released, a Sim, on a store or on private
// storage, panics on every step, run and scheduling call, and a second
// Release does nothing.
func TestReleasedSimPanics(t *testing.T) {
	for name, s := range map[string]*Sim{"store": NewSimOn(1, NewStore()), "private": NewSim(1)} {
		s.After(time.Second, func() { t.Errorf("%s: an event fired after Release", name) })
		s.Release()
		s.Release()
		for op, f := range map[string]func(){
			"Step":     func() { s.Step() },
			"Run":      s.Run,
			"RunUntil": func() { s.RunUntil(s.Now().Add(time.Hour)) },
			"RunFor":   func() { s.RunFor(time.Hour) },
			"At":       func() { s.At(s.Now(), func() {}) },
			"After":    func() { s.After(0, func() {}) },
			"AtCall":   func() { s.AtCall(s.Now(), func(any) {}, nil) },
			"Every":    func() { s.Every(time.Second, func() {}) },
			"Rand":     func() { s.Rand(1) },
			"Fork":     func() { s.Fork("x") },
		} {
			func() {
				defer func() {
					if r := recover(); r != errReleased {
						t.Errorf("%s: %s after Release recovered %v, want the release panic", name, op, r)
					}
				}()
				f()
			}()
		}
	}
}

// TestParkedStoreHoldsNoReferences: a store parks no callback, call
// argument, Sim or packet payload, even when its Sim was released with
// events pending and packets in flight, so parked storage keeps no
// finished study alive. Of generators it parks exactly the ones its
// Sim lent, which hold nothing but their own state.
func TestParkedStoreHoldsNoReferences(t *testing.T) {
	st := NewStore()
	s := NewSimOn(4, st)
	storeProgram(s, 4)
	if s.Pending() == 0 {
		t.Fatal("the program left no event pending; Release would have nothing to clear")
	}
	s.Rand(1)
	lent := slices.Clone(s.rands[:s.lent]) // the network's forks and this one
	if len(lent) < 3 {
		t.Fatalf("the Sim lent %d generators, want at least 3", len(lent))
	}
	s.Release()
	events, packets, rands := st.Parked()
	if len(events) == 0 || len(packets) == 0 {
		t.Fatalf("the store parks %d events and %d packets", len(events), len(packets))
	}
	if !slices.Equal(rands, lent) {
		t.Fatalf("the store parks %d generators, want the %d the Sim lent", len(rands), len(lent))
	}
	for i, r := range rands[len(rands):cap(rands)] {
		if r != nil {
			t.Fatalf("parked generator slot %d past the length holds a generator", len(rands)+i)
		}
	}
	for i, e := range events {
		if e.fn != nil || e.pcall != nil || e.parg != nil || e.sim != nil {
			t.Fatalf("parked event %d holds a reference: %+v", i, *e)
		}
	}
	for i, e := range st.free[:cap(st.free)] {
		if e != nil {
			t.Fatalf("parked free-list slot %d holds an event", i)
		}
	}
	for i, e := range st.queue[:cap(st.queue)] {
		if e != nil {
			t.Fatalf("parked queue slot %d holds an event", i)
		}
	}
	for i, p := range packets {
		if !reflect.DeepEqual(*p, Packet{}) {
			t.Fatalf("parked packet %d is not zeroed: %+v", i, *p)
		}
	}
}

// scribbleRands leaves every generator in rs in a state no lent one
// starts in: advanced, reseeded with junk, advanced again and stopped
// three bytes into a Read.
func scribbleRands(rs []*rand.Rand) {
	for i, r := range rs {
		r.Int63()
		r.Seed(int64(i)*0x5deece66d + 0xbad)
		r.NormFloat64()
		r.Read(make([]byte, 3))
	}
}

// randDraws draws from r through every path a study uses and the
// ones that read the generator's own state: Int63 through the source,
// the float conversions, bounded ints, a permutation and a Read that
// leaves bytes buffered for the next.
func randDraws(r *rand.Rand) []any {
	var out []any
	for i := 0; i < 700; i++ { // more than the 607-word state
		out = append(out, r.Int63())
	}
	for i := 0; i < 20; i++ {
		out = append(out, r.Float64(), r.NormFloat64(), r.ExpFloat64(), r.Intn(1000), r.Int31n(7), r.Uint64())
	}
	out = append(out, r.Perm(12))
	b := make([]byte, 5)
	r.Read(b)
	out = append(out, slices.Clone(b))
	r.Read(b)
	return append(out, b)
}

// randSeeds are the seeds TestRandMatchesNewSource covers: the ones
// rngSource.Seed maps to its fixed 89482311 (seed % (2^31-1) == 0), -1,
// the int64 extremes and a handful of random ones.
func randSeeds() []int64 {
	seeds := []int64{0, -1, 1<<31 - 1, 2 * (1<<31 - 1), -(1<<31 - 1), 89482311, math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 6; i++ {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	return seeds
}

// TestRandMatchesNewSource: a Sim on a warm store whose parked
// generators were scribbled lends generators that draw exactly what
// rand.New(rand.NewSource(seed)) draws, as do Fork on it and Rand on a
// private Sim; and the lent generators are the parked ones.
func TestRandMatchesNewSource(t *testing.T) {
	seeds := randSeeds()
	st := NewStore()
	warm := NewSimOn(1, st)
	for range seeds {
		warm.Rand(5).Int63()
	}
	warm.Release()
	_, _, parked := st.Parked()
	parked = slices.Clone(parked)
	if len(parked) != len(seeds) {
		t.Fatalf("the store parks %d generators, want %d", len(parked), len(seeds))
	}
	scribbleRands(parked)

	s, private := NewSimOn(2, st), NewSim(2)
	for i, seed := range seeds {
		want := randDraws(rand.New(rand.NewSource(seed)))
		r := s.Rand(seed)
		if r != parked[i] {
			t.Fatalf("seed %d: Rand lent a new generator, not parked generator %d", seed, i)
		}
		if got := randDraws(r); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: a reseeded parked generator draws differently from a new source", seed)
		}
		if got := randDraws(private.Rand(seed)); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: Rand on private storage draws differently from a new source", seed)
		}
	}
	// Past the parked ones, Rand builds new generators; Fork lends as
	// Rand does.
	h := fnv.New64a()
	h.Write([]byte("simnet.core-jitter"))
	want := randDraws(rand.New(rand.NewSource(2 ^ int64(h.Sum64()))))
	if got := randDraws(s.Fork("simnet.core-jitter")); !reflect.DeepEqual(got, want) {
		t.Error("Fork draws differently from a new source on its derived seed")
	}
}

// TestWarmStoreLendsParkedRands: a second Sim on a store gets back the
// generators the first one lent, in order, without allocating; a Sim
// keeps at most maxStoreRands of them for its store.
func TestWarmStoreLendsParkedRands(t *testing.T) {
	const n = 16
	st := NewStore()
	first := NewSimOn(1, st)
	for i := 0; i < n; i++ {
		first.Rand(int64(i))
	}
	first.Release()
	_, _, parked := st.Parked()
	parked = slices.Clone(parked)
	s := NewSimOn(2, st)
	got := make([]*rand.Rand, 0, n)
	if allocs := testing.AllocsPerRun(n-1, func() { got = append(got, s.Rand(int64(len(got)))) }); allocs != 0 {
		t.Errorf("Rand on a warm store allocates %v times per call, want 0", allocs)
	}
	if !slices.Equal(got, parked) {
		t.Error("the second Sim did not get the parked generators back in order")
	}
	s.Release()

	big := NewSimOn(3, st)
	for i := 0; i < maxStoreRands+10; i++ {
		big.Rand(int64(i))
	}
	big.Release()
	if _, _, parked := st.Parked(); len(parked) != maxStoreRands {
		t.Errorf("the store parks %d generators after a Sim lent %d, want %d", len(parked), maxStoreRands+10, maxStoreRands)
	}
}
