package simnet

import (
	"math/rand"
	"reflect"
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
// cancelled, and pooled packets bound for nowhere with a continuation
// that panics.
func scribbleStore(st *Store) {
	junk := &Event{at: -1, seq: 1 << 60, fn: func() { panic("junk event fired") },
		pcall: func(any) { panic("junk call fired") }, parg: "junk", sim: NewSim(0), cancelled: true, recycle: true, index: 7}
	events, packets := st.Parked()
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
	events, packets := st.Parked()
	if len(events) == 0 || len(packets) == 0 || cap(st.free) == 0 || cap(st.queue) == 0 {
		t.Fatalf("the store parks %d events, %d packets, a free list of %d and a queue of %d; nothing to reuse",
			len(events), len(packets), cap(st.free), cap(st.queue))
	}
	scribbleStore(st)
	for _, seed := range []int64{1, 2, 3} {
		want := storeProgram(NewSim(seed), seed)
		s := NewSimOn(seed, st)
		if len(st.slabs) != 0 || st.free != nil || st.queue != nil || st.pkts != nil {
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
// finished study alive.
func TestParkedStoreHoldsNoReferences(t *testing.T) {
	st := NewStore()
	s := NewSimOn(4, st)
	storeProgram(s, 4)
	if s.Pending() == 0 {
		t.Fatal("the program left no event pending; Release would have nothing to clear")
	}
	s.Release()
	events, packets := st.Parked()
	if len(events) == 0 || len(packets) == 0 {
		t.Fatalf("the store parks %d events and %d packets", len(events), len(packets))
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
