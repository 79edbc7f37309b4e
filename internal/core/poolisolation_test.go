package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/codec"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/kit"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/rtp"
	"github.com/vcabench/vcabench/internal/simnet"
)

// TestForkedTestbedPoolIsolation proves a fork's network pools never
// cross forked testbeds. Four forks churn their packet/event pools
// concurrently while every pooled packet observed at delivery is
// recorded in a shared ownership map: a pool leak between forks would
// surface the same pointer under two fork keys (and, independently, as
// a data race under -race, since each fork's pool is unsynchronized by
// design — single-owner determinism is the whole point of not using
// sync.Pool). A bare fork runs on private storage. A scheduler worker's
// kit does pass between forks, one fork at a time: the QoE scorer's
// buffers, the media.FramePool that holds the QoE host's frame pixel
// storage (an encoder's private resize-ladder pool never leaves its
// encoder), the capture.Store that holds the clients' trace records and
// RTP header chunks, the rtp.Store that holds the packets they send and
// the simnet.Store that holds the simulator's events and packets.
// TestSchedulerWorkerBuffersNeverShared checks those five.
func TestForkedTestbedPoolIsolation(t *testing.T) {
	tb := NewTestbed(42)
	var (
		mu    sync.Mutex
		owner = make(map[*simnet.Packet]string)
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		key := fmt.Sprintf("pool-iso/%d", w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			stb := tb.Fork(key)
			a := stb.Net.AddNode(simnet.NodeConfig{Name: "a", Region: geo.USEast})
			b := stb.Net.AddNode(simnet.NodeConfig{Name: "b", Region: geo.USEast2})
			b.Bind(5, func(p *simnet.Packet) {
				mu.Lock()
				if prev, ok := owner[p]; ok && prev != key {
					t.Errorf("pooled packet %p seen in fork %s and fork %s", p, prev, key)
				}
				owner[p] = key
				mu.Unlock()
			})
			for i := 0; i < 500; i++ {
				pkt := stb.Net.NewPacket()
				pkt.To = simnet.Addr{Node: "b", Port: 5}
				pkt.Size = 100 + i%700
				if err := a.Send(pkt); err != nil {
					t.Error(err)
					return
				}
				stb.Sim.Run()
			}
		}()
	}
	wg.Wait()
	if len(owner) == 0 {
		t.Fatal("no pooled packets observed")
	}
}

// lendLog marks, under a mutex, each fork's entry and exit on the five
// members of the kit its worker lent it, across every run it watches: none may be held by
// two forks at once (under -race, a shared one would also race).
type lendLog struct {
	t      *testing.T
	mu     sync.Mutex
	holder map[any]string
}

// lendStudy is the QoE study unit i of a lendLog batch runs.
func lendStudy(stb *Testbed, i int) *QoEStudyResult {
	kinds := []platform.Kind{platform.Zoom, platform.Webex, platform.Meet}
	return RunQoEStudy(stb, kinds[i%len(kinds)], geo.USEast, QoEReceiverRegions(geo.ZoneUS, 1+i%2),
		media.MotionClass(i%2), TinyScale, QoEOpts{})
}

// units returns len(got) lendStudy units keyed prefix/i that record into
// l and into served (pool -> cells it served) and store their results
// in got.
func (l *lendLog) units(prefix string, served map[any]int, got []*QoEStudyResult) []Unit {
	units := make([]Unit, len(got))
	for i := range units {
		i, key := i, fmt.Sprintf("%s/%d", prefix, i)
		units[i] = Unit{Key: key, Run: func(stb *Testbed) {
			k := stb.kit
			lent := []any{k.QoE, k.Frames, k.Capture, k.Packets, k.Sim}
			l.mu.Lock()
			if k.QoE == nil || k.Frames == nil || k.Capture == nil || k.Packets == nil || k.Sim == nil {
				l.t.Errorf("fork %s lacks worker pools: %+v", key, k)
			}
			for _, b := range lent {
				if prev, ok := l.holder[b]; ok {
					l.t.Errorf("pool %p held by fork %s and fork %s at once", b, prev, key)
				}
				l.holder[b] = key
				served[b]++
			}
			l.mu.Unlock()

			got[i] = lendStudy(stb, i)

			l.mu.Lock()
			for _, b := range lent {
				delete(l.holder, b)
			}
			l.mu.Unlock()
		}}
	}
	return units
}

// checkPrivate checks that every unit's result equals the same unit's
// result on a fork with private storage.
func checkPrivate(t *testing.T, tb *Testbed, units []Unit, got []*QoEStudyResult) {
	t.Helper()
	for i, u := range units {
		if want := lendStudy(tb.Fork(u.Key), i); !reflect.DeepEqual(got[i], want) {
			t.Errorf("unit %s: result on worker pools differs from private pools'", u.Key)
		}
	}
}

// countKits checks that served holds at most max pools of each kind,
// and that one of each kind served a second cell when reuse is set.
func countKits(t *testing.T, served map[any]int, max int, reuse bool) {
	t.Helper()
	for _, kind := range []string{"*qoe.Buffers", "*media.FramePool", "*capture.Store", "*rtp.Store", "*simnet.Store"} {
		n, reused := 0, false
		for b, cells := range served {
			if fmt.Sprintf("%T", b) == kind {
				n++
				reused = reused || cells > 1
			}
		}
		if n > max {
			t.Errorf("%d %s for %d workers, want at most one per worker", n, kind, max)
		}
		if reuse && !reused {
			t.Errorf("no worker reused its %s for a second cell", kind)
		}
	}
}

// TestSchedulerWorkerBuffersNeverShared runs QoE units through the
// scheduler and checks the kit hand-off (see lendLog). On one testbed
// with three workers, each worker owns at most one of each pool and
// reuses all five from cell to cell. A second Run on that testbed,
// after every parked capture record, RTP packet, frame buffer,
// simulator event and simulator packet is overwritten with junk, lends only pools the first Run lent, since its
// workers take the kits the first Run parked. Then two Runs on two
// testbeds go at once. Every result must equal the same unit's result
// on a fork with private storage.
func TestSchedulerWorkerBuffersNeverShared(t *testing.T) {
	const workers = 3
	l := &lendLog{t: t, holder: make(map[any]string)}
	tb := NewTestbed(42).SetParallelism(workers)

	first := make(map[any]int)
	got := make([]*QoEStudyResult, 9)
	units := l.units("bufs-iso", first, got)
	(&Scheduler{TB: tb}).Run(units)
	countKits(t, first, workers, true)
	checkPrivate(t, tb, units, got)

	parkedKits.Lock()
	for _, p := range parkedKits.free {
		scribbleCaptures(p.Capture)
		scribblePackets(p.Packets)
		scribbleFrames(p.Frames)
		scribbleSim(p.Sim)
	}
	parkedKits.Unlock()
	second := make(map[any]int)
	got = make([]*QoEStudyResult, 6)
	units = l.units("bufs-iso/again", second, got)
	(&Scheduler{TB: tb}).Run(units)
	for b := range second {
		if first[b] == 0 {
			t.Errorf("the second Run lent %T %p, which the first Run never lent", b, b)
		}
	}
	countKits(t, second, workers, true)
	checkPrivate(t, tb, units, got)

	var wg sync.WaitGroup
	concurrent := make(map[any]int)
	for _, seed := range []int64{42, 43} {
		tb := NewTestbed(seed).SetParallelism(2)
		served := make(map[any]int)
		got := make([]*QoEStudyResult, 4)
		units := l.units(fmt.Sprintf("bufs-iso/seed=%d", seed), served, got)
		wg.Add(1)
		go func() {
			defer wg.Done()
			(&Scheduler{TB: tb}).Run(units)
			checkPrivate(t, tb, units, got)
			l.mu.Lock()
			for b, n := range served {
				concurrent[b] += n
			}
			l.mu.Unlock()
		}()
	}
	wg.Wait()
	countKits(t, concurrent, 2*2, false)

	if fork := tb.Fork("x"); tb.kit != (kit.Kit{}) || fork.kit != (kit.Kit{}) {
		t.Error("a testbed that is not a scheduler fork has worker pools")
	}
}

// twoSessionScale runs two QoE sessions per cell, so the host's second
// session draws on the storage its first returned.
func twoSessionScale() Scale {
	sc := TinyScale
	sc.QoESessions = 2
	return sc
}

// TestReusedFrameStorageCannotChangeResults is the frame-storage twin
// of qoe's TestReusedBuffersCannotChangeResults, and pins the contract
// storage reuse rests on: every producer of a frame writes each pixel
// before any is read. For each motion class, a two-session study runs
// on a worker pool that already holds the storage of an unrelated study
// (another platform, motion class and meeting size) with every parked
// buffer filled with 0xA5, and must equal the same study on a private
// pool bit for bit.
func TestReusedFrameStorageCannotChangeResults(t *testing.T) {
	sc := twoSessionScale()
	tb := NewTestbed(42)
	for motion, unrelated := range map[media.MotionClass]media.MotionClass{
		media.LowMotion:  media.HighMotion,
		media.HighMotion: media.LowMotion,
	} {
		study := func(stb *Testbed) *QoEStudyResult {
			return RunQoEStudy(stb, platform.Webex, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 2), motion, sc, QoEOpts{})
		}
		want := study(tb.Fork("frames/study"))

		pool := media.NewFramePool()
		other := tb.Fork("frames/other")
		other.kit.Frames = pool
		RunQoEStudy(other, platform.Zoom, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 1), unrelated, TinyScale, QoEOpts{})
		if full := sc.Profile.W * sc.Profile.H; pool.Parked()[full] == 0 {
			t.Fatalf("no %d-pixel storage parked after the unrelated study; the rerun would reuse none", full)
		}
		scribbleFrames(pool)

		stb := tb.Fork("frames/study")
		stb.kit.Frames = pool
		if got := study(stb); !reflect.DeepEqual(got, want) {
			t.Errorf("%v study on reused 0xA5-filled storage differs from the same study on a private pool:\n got %+v\nwant %+v",
				motion, got, want)
		}
	}
}

// scribbleFrames fills every buffer pool parks with 0xA5.
func scribbleFrames(pool *media.FramePool) {
	for pix, count := range pool.Parked() {
		dirty := make([]*media.Frame, count)
		for i := range dirty {
			dirty[i] = pool.Get(pix, 1)
			for j := range dirty[i].Pix {
				dirty[i].Pix[j] = 0xA5
			}
		}
		for _, f := range dirty {
			pool.Put(f)
		}
	}
}

// TestWarmFramePoolAddsNoStorage reruns one QoE cell on the pool it
// warmed: the rerun needs exactly the storage the first run returned,
// so the pool must park the same buffers after it as before.
func TestWarmFramePoolAddsNoStorage(t *testing.T) {
	tb := NewTestbed(42)
	pool := media.NewFramePool()
	run := func() map[int]int {
		stb := tb.Fork("frames/warm")
		stb.kit.Frames = pool
		RunQoEStudy(stb, platform.Meet, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 2), media.HighMotion, twoSessionScale(), QoEOpts{})
		return pool.Parked()
	}
	cold := run()
	if len(cold) == 0 {
		t.Fatal("the first study returned no storage")
	}
	if warm := run(); !reflect.DeepEqual(warm, cold) {
		t.Errorf("rerun on a warm pool parks %v, want the %v it started with", warm, cold)
	}
}

// TestLagStudyLeavesLentFramePoolAlone runs a lag study on a fork with
// a lent frame pool. The flash feed is an explicit source whose two
// frames live across sessions and no lag study builds a
// reconstruction, so nothing may reach the pool, and the result must
// equal a private fork's: a flash frame stripped of its pixels after
// the first session would break the second.
func TestLagStudyLeavesLentFramePoolAlone(t *testing.T) {
	tb := NewTestbed(42)
	study := func(stb *Testbed) *LagStudyResult {
		return RunLagStudy(stb, platform.Zoom, geo.USEast, []geo.Region{geo.USWest, geo.USCentral}, TinyScale)
	}
	if TinyScale.LagSessions < 2 {
		t.Fatal("TinyScale runs one lag session; the flash frames would not outlive a session")
	}
	want := study(tb.Fork("frames/lag"))
	pool := media.NewFramePool()
	stb := tb.Fork("frames/lag")
	stb.kit.Frames = pool
	got := study(stb)
	if parked := pool.Parked(); len(parked) != 0 {
		t.Errorf("lag study returned storage to the lent pool: %v", parked)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("lag study on a lent frame pool differs from a private fork's")
	}
}

// scribbleCaptures overwrites every field of every record in every chunk
// the store parks, inline RTP header included, with junk a reader would
// notice: big RTP packets in both directions from an unknown endpoint,
// stamped far past any session, so a record read before it is
// overwritten moves a lag, a rate, a window or an endpoint count.
func scribbleCaptures(s *capture.Store) {
	future := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	junk := capture.Endpoint{IP: capture.IPv4{203, 0, 113, 66}, Port: 0xbad}
	for _, c := range s.Parked() {
		for i := range c {
			c[i] = capture.Record{
				UnixNano: future + int64(i),
				Dir:      capture.Dir(i % 2),
				HasRTP:   true,
				Src:      junk,
				Dst:      junk,
				Len:      1400,
				RTP:      capture.RTPInfo{SSRC: 0xbad, Seq: 0xbad, TS: 0xbad, Marker: true, PT: 0x7d, KeyUnit: true},
			}
		}
	}
}

// TestReusedCaptureStorageCannotChangeResults pins the contract capture
// storage reuse rests on: a trace appends over its storage before any
// read, so no record of an earlier cell is ever read. An unrelated QoE
// study (another platform, motion class and meeting size) fills a
// worker's capture store; then, with every field of every parked record
// overwritten with junk, a lag study and after it a QoE study on that
// store must encode to the same cell bytes as the same studies on
// private storage. A store that hands out a chunk a live trace still
// holds fails it too: two traces then write over each other.
func TestReusedCaptureStorageCannotChangeResults(t *testing.T) {
	tb := NewTestbed(42)
	lag := func(stb *Testbed) any {
		return RunLagStudy(stb, platform.Zoom, geo.USEast, []geo.Region{geo.USWest, geo.USCentral}, TinyScale)
	}
	qoeStudy := func(stb *Testbed) any {
		return RunQoEStudy(stb, platform.Webex, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 2), media.LowMotion, TinyScale, QoEOpts{})
	}
	encode := func(v any) []byte {
		b, err := encodeCell(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	store := capture.NewStore()
	other := tb.Fork("captures/other")
	other.kit.Capture = store
	RunQoEStudy(other, platform.Meet, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 1), media.HighMotion, TinyScale, QoEOpts{})
	for _, c := range []struct {
		name  string
		study func(*Testbed) any
	}{{"lag", lag}, {"qoe", qoeStudy}} {
		key := "captures/" + c.name
		want := encode(c.study(tb.Fork(key)))

		if n := len(store.Parked()); n == 0 {
			t.Fatalf("before the %s study the store parks no chunks; the study would reuse none", c.name)
		}
		scribbleCaptures(store)
		stb := tb.Fork(key)
		stb.kit.Capture = store
		if got := encode(c.study(stb)); !bytes.Equal(got, want) {
			t.Errorf("%s study on reused junk-filled capture storage encodes differently from the same study on private storage",
				c.name)
		}
	}
}

// scribblePackets overwrites every slot of every chunk the store parks
// with a junk packet a receiver would notice: a big keyframe fragment
// of a frame no sender made, under a foreign SSRC.
func scribblePackets(s *rtp.Store) {
	frame := &codec.EncodedFrame{Seq: 3, Bits: 8 * 1400, Keyframe: true}
	payload := rtp.Payload{Video: frame, FragIndex: 0, FragCount: 1}
	for _, c := range s.Parked() {
		for i := range c.Ptrs {
			c.Payloads[i] = payload
			c.Packets[i] = rtp.Packet{
				Info:  capture.RTPInfo{SSRC: 0xbad, Seq: 0xbad, TS: 0xbad, Marker: true, PT: rtp.PTVideo, KeyUnit: true},
				Bytes: 1400,
				Data:  &c.Payloads[i],
			}
			c.Ptrs[i] = &c.Packets[i]
		}
	}
}

// scribbleSim marks every event slot the store parks cancelled, so an
// event handed out without being rewritten never fires, and overwrites
// every parked packet with a junk datagram a receiver would notice: a
// big packet between unknown nodes, stamped far past any session, that
// carries a foreign RTP packet.
func scribbleSim(s *simnet.Store) {
	future := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	junk := simnet.Addr{Node: "junk", Port: 0xbad}
	payload := &rtp.Packet{Info: capture.RTPInfo{SSRC: 0xbad, Seq: 0xbad, PT: rtp.PTVideo, KeyUnit: true}, Bytes: 1400}
	events, packets := s.Parked()
	for _, e := range events {
		e.Cancel()
	}
	for _, p := range packets {
		*p = simnet.Packet{From: junk, To: junk, Size: 1400, Payload: payload, SentAt: future, ArrivedAt: future}
	}
}

// TestReusedPacketStorageCannotChangeResults pins the contract RTP
// packet, source background and simulator storage reuse rest on: a
// packetizer writes every slot of a packet before anyone reads it, a
// motion source writes every pixel of its background or world before
// copying from it, the simulator writes every event and packet whole
// before handing it out, and none goes back while a reader can reach
// it. An unrelated high-motion QoE study (another platform and meeting
// size) fills a worker's packet store, frame pool and simulator store;
// then, with every parked packet, pixel and event overwritten with
// junk, a lag study and fig12 cells of both motion classes on that
// storage must encode to the same cell bytes as the same studies on
// private storage.
func TestReusedPacketStorageCannotChangeResults(t *testing.T) {
	tb := NewTestbed(42)
	qoeStudy := func(motion media.MotionClass) func(*Testbed) any {
		return func(stb *Testbed) any {
			return RunQoEStudy(stb, platform.Webex, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 2), motion, TinyScale, QoEOpts{})
		}
	}
	encode := func(v any) []byte {
		b, err := encodeCell(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	k := kit.Kit{Packets: rtp.NewStore(), Frames: media.NewFramePool(), Sim: simnet.NewStore()}
	RunQoEStudy(tb.forkOn("packets/other", k), platform.Meet, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 1), media.HighMotion, TinyScale, QoEOpts{})
	world := 3 * TinyScale.Profile.W * TinyScale.Profile.H
	for _, c := range []struct {
		name  string
		study func(*Testbed) any
	}{
		{"lag", func(stb *Testbed) any {
			return RunLagStudy(stb, platform.Zoom, geo.USEast, []geo.Region{geo.USWest, geo.USCentral}, TinyScale)
		}},
		{"qoe-high", qoeStudy(media.HighMotion)},
		{"qoe-low", qoeStudy(media.LowMotion)},
	} {
		key := "packets/" + c.name
		want := encode(c.study(tb.Fork(key)))

		events, packets := k.Sim.Parked()
		if len(k.Packets.Parked()) == 0 || k.Frames.Parked()[world] == 0 || len(events) == 0 || len(packets) == 0 {
			t.Fatalf("before the %s study the kit parks %d packet chunks, %d worlds, %d events and %d simulator packets; the study would reuse none",
				c.name, len(k.Packets.Parked()), k.Frames.Parked()[world], len(events), len(packets))
		}
		scribblePackets(k.Packets)
		scribbleFrames(k.Frames)
		scribbleSim(k.Sim)
		if got := encode(c.study(tb.forkOn(key, k))); !bytes.Equal(got, want) {
			t.Errorf("%s study on reused junk-filled packet, frame and simulator storage encodes differently from the same study on private storage",
				c.name)
		}
	}
}
