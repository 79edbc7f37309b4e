package rtp

import (
	"math/rand"
	"testing"

	"github.com/vcabench/vcabench/internal/capture"
	"github.com/vcabench/vcabench/internal/codec"
)

// scribble overwrites every slot of every chunk s parks with junk a
// reader would notice.
func scribble(s *Store) {
	junkFrame := &codec.EncodedFrame{Seq: 0xbad, Bits: 0xbad}
	junkPayload := &Payload{Video: junkFrame, FragIndex: 0xbad, FragCount: 0xbad}
	junk := &Packet{Info: capture.RTPInfo{SSRC: 0xbad, Seq: 0xbad, TS: 0xbad, PT: 0x7d}, Bytes: 0xbad, Data: junkPayload}
	for _, c := range s.Parked() {
		for i := range c.Ptrs {
			c.Packets[i], c.Payloads[i], c.Ptrs[i] = *junk, *junkPayload, junk
		}
	}
}

// randomFrames returns n frames of random sizes, some skipped and some
// wider than a chunk.
func randomFrames(rng *rand.Rand, n int) []*codec.EncodedFrame {
	frames := make([]*codec.EncodedFrame, n)
	for i := range frames {
		bytes := 1 + rng.Intn(20000)
		switch rng.Intn(25) {
		case 0:
			bytes = (ChunkLen + 1 + rng.Intn(ChunkLen)) * (DefaultMTU - HeaderLen)
		case 1:
			frames[i] = &codec.EncodedFrame{Seq: i, Skipped: true}
			continue
		}
		frames[i] = frameOfBits(i, 8*bytes, i%30 == 0)
	}
	return frames
}

// TestStorePacketsMatchAllocated packetizes random streams, audio
// interleaved and some frames wider than a chunk, on a store whose
// parked chunks hold junk, and on nil storage. Every packet must equal
// its nil-storage twin field for field, when made and again once the
// stream is done (no later packet wrote over it), and no slot may be
// handed out twice. Release parks every chunk the stream took, and the
// packetizer then leaves the store.
func TestStorePacketsMatchAllocated(t *testing.T) {
	store := NewStore()
	wide := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scribble(store)
		parked := len(store.Parked())
		want, got := NewPacketizer(5, DefaultMTU, 30), NewPacketizerOn(5, DefaultMTU, 30, store)
		var wantPkts, gotPkts []*Packet
		for i, ef := range randomFrames(rng, 200) {
			w, g := want.Video(ef), got.Video(ef)
			if len(w) > ChunkLen {
				wide++
			}
			if rng.Intn(3) == 0 {
				af := &codec.AudioFrame{Seq: i, Bits: 800}
				w, g = append(w, want.Audio(af)), append(g, got.Audio(af))
			}
			if len(g) != len(w) {
				t.Fatalf("seed %d frame %d: %d packets on a store, %d on nil storage", seed, i, len(g), len(w))
			}
			wantPkts, gotPkts = append(wantPkts, w...), append(gotPkts, g...)
		}
		seen := make(map[*Packet]bool)
		for i, g := range gotPkts {
			w := wantPkts[i]
			if g.Info != w.Info || g.Bytes != w.Bytes || *g.Data != *w.Data {
				t.Fatalf("seed %d packet %d: %+v %+v on a store, %+v %+v on nil storage", seed, i, g, *g.Data, w, *w.Data)
			}
			if seen[g] {
				t.Fatalf("seed %d packet %d: a slot handed out twice", seed, i)
			}
			seen[g] = true
		}
		held := 0
		for c := got.held; c != nil; c = c.next {
			held++
		}
		if held == 0 {
			t.Fatalf("seed %d: the stream holds %d chunks", seed, held)
		}
		got.Release()
		if n := len(store.Parked()); n != max(parked, held) {
			t.Errorf("seed %d: store parks %d chunks after Release, want %d", seed, n, max(parked, held))
		}
		got.Video(frameOfBits(0, 8000, false))
		if n := len(store.Parked()); n != max(parked, held) {
			t.Errorf("seed %d: a packet made after Release took a parked chunk", seed)
		}
	}
	if wide == 0 {
		t.Error("no frame was wider than a chunk")
	}
}

// TestWarmStoreVideoAllocatesNothing: once a store holds a stream's
// chunks, a packetizer on it packetizes that stream, audio included,
// without allocating.
func TestWarmStoreVideoAllocatesNothing(t *testing.T) {
	frames := make([]*codec.EncodedFrame, 100)
	for i := range frames {
		frames[i] = frameOfBits(i, 8*(1000+97*i), i%30 == 0)
	}
	af := &codec.AudioFrame{Bits: 800}
	stream := func(p *Packetizer) {
		for _, ef := range frames {
			p.Video(ef)
			p.Audio(af)
		}
	}
	store := NewStore()
	warm := NewPacketizerOn(1, DefaultMTU, 30, store)
	stream(warm)
	stream(warm)
	warm.Release()
	p := NewPacketizerOn(1, DefaultMTU, 30, store)
	// AllocsPerRun runs the stream twice: once to warm up, once measured.
	if n := testing.AllocsPerRun(1, func() { stream(p) }); n != 0 {
		t.Errorf("a stream on a warm store allocates %v times, want 0", n)
	}
}
