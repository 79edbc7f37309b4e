package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/geo"
	"github.com/vcabench/vcabench/internal/media"
	"github.com/vcabench/vcabench/internal/platform"
	"github.com/vcabench/vcabench/internal/simnet"
)

// TestForkedTestbedPoolIsolation proves a fork's network pools never
// cross forked testbeds. Four forks churn their packet/event pools
// concurrently while every pooled packet observed at delivery is
// recorded in a shared ownership map: a pool leak between forks would
// surface the same pointer under two fork keys (and, independently, as
// a data race under -race, since each fork's pool is unsynchronized by
// design — single-owner determinism is the whole point of not using
// sync.Pool). Three stores do pass between forks, one fork at a time on
// one scheduler worker: the QoE scorer's buffers, the media.FramePool
// that holds the QoE host's frame pixel storage (an encoder's private
// resize-ladder pool never leaves its encoder) and the capture.Store
// that holds the clients' trace records and RTP header chunks.
// TestSchedulerWorkerBuffersNeverShared checks those three.
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

// TestSchedulerWorkerBuffersNeverShared runs QoE units on three
// scheduler workers and marks, under a mutex, each fork's entry and exit
// on the qoe.Buffers, the media.FramePool and the capture.Store its
// worker lent it: none may be held by two forks at once (under -race, a
// shared one would also race), each worker owns at most one of each and
// must reuse all three from cell to cell, and every result must equal
// the same unit's result on a fork with private storage.
func TestSchedulerWorkerBuffersNeverShared(t *testing.T) {
	const workers = 3
	tb := NewTestbed(42).SetParallelism(workers)
	kinds := []platform.Kind{platform.Zoom, platform.Webex, platform.Meet}
	study := func(stb *Testbed, i int) *QoEStudyResult {
		return RunQoEStudy(stb, kinds[i%len(kinds)], geo.USEast, QoEReceiverRegions(geo.ZoneUS, 1+i%2),
			media.MotionClass(i%2), TinyScale, QoEOpts{})
	}
	var (
		mu     sync.Mutex
		holder = make(map[any]string)
		served = make(map[any]int)
	)
	units := make([]Unit, 9)
	got := make([]*QoEStudyResult, len(units))
	for i := range units {
		i, key := i, fmt.Sprintf("bufs-iso/%d", i)
		units[i] = Unit{Key: key, Run: func(stb *Testbed) {
			lent := []any{stb.qoeBufs, stb.frames, stb.captures}
			mu.Lock()
			if stb.qoeBufs == nil || stb.frames == nil || stb.captures == nil {
				t.Errorf("fork %s lacks worker pools: buffers %p, frames %p, captures %p", key, stb.qoeBufs, stb.frames, stb.captures)
			}
			for _, b := range lent {
				if prev, ok := holder[b]; ok {
					t.Errorf("pool %p held by fork %s and fork %s at once", b, prev, key)
				}
				holder[b] = key
				served[b]++
			}
			mu.Unlock()

			got[i] = study(stb, i)

			mu.Lock()
			for _, b := range lent {
				delete(holder, b)
			}
			mu.Unlock()
		}}
	}
	(&Scheduler{TB: tb}).Run(units)

	for _, kind := range []string{"*qoe.Buffers", "*media.FramePool", "*capture.Store"} {
		n, reused := 0, false
		for b, cells := range served {
			if fmt.Sprintf("%T", b) == kind {
				n++
				reused = reused || cells > 1
			}
		}
		if n > workers {
			t.Errorf("%d %s for %d workers, want one per worker", n, kind, workers)
		}
		if !reused {
			t.Errorf("no worker reused its %s for a second cell", kind)
		}
	}
	if fork := tb.Fork("x"); tb.qoeBufs != nil || fork.qoeBufs != nil || tb.frames != nil || fork.frames != nil ||
		tb.captures != nil || fork.captures != nil {
		t.Error("a testbed that is not a scheduler fork has worker pools")
	}
	for i, u := range units {
		if want := study(tb.Fork(u.Key), i); !reflect.DeepEqual(got[i], want) {
			t.Errorf("unit %s: result on worker pools differs from private pools'", u.Key)
		}
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
		other.frames = pool
		RunQoEStudy(other, platform.Zoom, geo.USEast, QoEReceiverRegions(geo.ZoneUS, 1), unrelated, TinyScale, QoEOpts{})
		parked := pool.Parked()
		if full := sc.Profile.W * sc.Profile.H; parked[full] == 0 {
			t.Fatalf("no %d-pixel storage parked after the unrelated study; the rerun would reuse none", full)
		}
		for pix, count := range parked {
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

		stb := tb.Fork("frames/study")
		stb.frames = pool
		if got := study(stb); !reflect.DeepEqual(got, want) {
			t.Errorf("%v study on reused 0xA5-filled storage differs from the same study on a private pool:\n got %+v\nwant %+v",
				motion, got, want)
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
		stb.frames = pool
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
	stb.frames = pool
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
	other.captures = store
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
		stb.captures = store
		if got := encode(c.study(stb)); !bytes.Equal(got, want) {
			t.Errorf("%s study on reused junk-filled capture storage encodes differently from the same study on private storage",
				c.name)
		}
	}
}
