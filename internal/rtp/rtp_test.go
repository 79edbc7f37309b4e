package rtp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/vcabench/vcabench/internal/codec"
	"github.com/vcabench/vcabench/internal/media"
)

func frameOfBits(seq, bits int, key bool) *codec.EncodedFrame {
	return &codec.EncodedFrame{Seq: seq, Bits: bits, Keyframe: key}
}

func TestVideoFragmentation(t *testing.T) {
	p := NewPacketizer(7, 1200, 30)
	ef := frameOfBits(0, 8*3000, true) // 3000 bytes => 3 fragments of <=1188
	pkts := p.Video(ef)
	if len(pkts) != 3 {
		t.Fatalf("fragments = %d, want 3", len(pkts))
	}
	total := 0
	for i, pk := range pkts {
		if pk.Info.SSRC != 7 || pk.Info.PT != PTVideo {
			t.Errorf("pkt %d header %+v", i, pk.Info)
		}
		if pk.Info.Seq != uint16(i) {
			t.Errorf("pkt %d seq = %d", i, pk.Info.Seq)
		}
		if (pk.Info.Marker) != (i == 2) {
			t.Errorf("pkt %d marker = %v", i, pk.Info.Marker)
		}
		if !pk.Info.KeyUnit {
			t.Errorf("pkt %d KeyUnit unset", i)
		}
		if pk.Bytes > 1200 {
			t.Errorf("pkt %d oversize %d", i, pk.Bytes)
		}
		total += pk.Bytes - HeaderLen
	}
	if total != 3000 {
		t.Errorf("media bytes = %d, want 3000", total)
	}
}

func TestTimestampAdvance(t *testing.T) {
	p := NewPacketizer(1, 1200, 30)
	a := p.Video(frameOfBits(0, 800, false))
	// A skipped frame advances the clock without emitting packets.
	if got := p.Video(&codec.EncodedFrame{Seq: 1, Skipped: true}); got != nil {
		t.Errorf("skipped frame produced %d packets", len(got))
	}
	b := p.Video(frameOfBits(2, 800, false))
	step := uint32(VideoClockHz / 30)
	if a[0].Info.TS != 0 || b[0].Info.TS != 2*step {
		t.Errorf("TS: %d then %d, want 0 then %d", a[0].Info.TS, b[0].Info.TS, 2*step)
	}
}

func TestAudioPacket(t *testing.T) {
	p := NewPacketizer(3, 1200, 30)
	clip := media.NewTone(0.02, 440, media.DefaultAudioRate)
	af := &codec.AudioFrame{Seq: 0, Bits: 1800, PCM: clip}
	pkt := p.Audio(af)
	if pkt.Info.PT != PTAudio || !pkt.Info.Marker {
		t.Errorf("audio header %+v", pkt.Info)
	}
	if pkt.Bytes != HeaderLen+225 {
		t.Errorf("audio bytes = %d", pkt.Bytes)
	}
}

func TestReassemblyInOrder(t *testing.T) {
	p := NewPacketizer(1, 1200, 30)
	r := NewReassembler(5)
	var done []*codec.EncodedFrame
	for i := 0; i < 10; i++ {
		for _, pk := range p.Video(frameOfBits(i, 8*2500, i == 0)) {
			vs, _ := r.Push(pk)
			done = append(done, vs...)
		}
	}
	if len(done) != 10 {
		t.Fatalf("completed %d/10 frames", len(done))
	}
	for i, ef := range done {
		if ef.Seq != i {
			t.Errorf("frame %d out of order: seq %d", i, ef.Seq)
		}
	}
	st := r.Flush()
	if st.FramesComplete != 10 || st.FramesDropped != 0 || st.PacketGaps != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReassemblyLostFragment(t *testing.T) {
	p := NewPacketizer(1, 1200, 30)
	r := NewReassembler(3)
	completed := 0
	for i := 0; i < 10; i++ {
		pkts := p.Video(frameOfBits(i, 8*3000, false))
		for j, pk := range pkts {
			if i == 4 && j == 1 {
				continue // drop middle fragment of frame 4
			}
			vs, _ := r.Push(pk)
			completed += len(vs)
		}
	}
	st := r.Flush()
	if completed != 9 {
		t.Errorf("completed = %d, want 9", completed)
	}
	if st.FramesDropped != 1 {
		t.Errorf("dropped = %d, want 1", st.FramesDropped)
	}
	if st.PacketGaps == 0 {
		t.Error("expected a sequence gap")
	}
}

func TestReassemblyReorderWithinWindow(t *testing.T) {
	p := NewPacketizer(1, 1200, 30)
	r := NewReassembler(5)
	f0 := p.Video(frameOfBits(0, 8*2000, true))
	f1 := p.Video(frameOfBits(1, 8*2000, false))
	var got []*codec.EncodedFrame
	push := func(pk *Packet) {
		vs, _ := r.Push(pk)
		got = append(got, vs...)
	}
	// Deliver frame 1 fully, then frame 0.
	for _, pk := range f1 {
		push(pk)
	}
	for _, pk := range f0 {
		push(pk)
	}
	if len(got) != 2 {
		t.Fatalf("completed %d frames", len(got))
	}
	// Completion order is arrival order (1 then 0); the client's slot
	// loop reorders by Seq.
	if got[0].Seq != 1 || got[1].Seq != 0 {
		t.Errorf("completion seqs = %d,%d", got[0].Seq, got[1].Seq)
	}
}

func TestAudioThroughReassembler(t *testing.T) {
	p := NewPacketizer(1, 1200, 30)
	r := NewReassembler(5)
	clip := media.NewTone(0.02, 440, media.DefaultAudioRate)
	pkt := p.Audio(&codec.AudioFrame{Seq: 0, Bits: 900, PCM: clip})
	vs, af := r.Push(pkt)
	if vs != nil || af == nil {
		t.Errorf("audio push: video=%v audio=%v", vs, af)
	}
}

func TestDuplicateFragmentIgnored(t *testing.T) {
	p := NewPacketizer(1, 1200, 30)
	r := NewReassembler(5)
	pkts := p.Video(frameOfBits(0, 8*2000, false))
	total := 0
	for _, pk := range pkts {
		vs, _ := r.Push(pk)
		total += len(vs)
	}
	vs, _ := r.Push(pkts[0]) // duplicate after completion
	total += len(vs)
	if total != 1 {
		t.Errorf("frame completed %d times", total)
	}
}

// Property: after Flush, every frame the reassembler ever saw a fragment
// of is either complete or dropped, exactly once. Frames whose fragments
// were all lost are invisible to a receiver and excluded.
func TestReassemblyConservationProperty(t *testing.T) {
	f := func(sizes []uint16, seed int64) bool {
		pz := NewPacketizer(9, 1200, 30)
		r := NewReassembler(4)
		rng := rand.New(rand.NewSource(seed))
		seen := make(map[int]bool)
		completed := 0
		for i, s := range sizes {
			bits := (int(s)%40000 + 100) * 8
			pkts := pz.Video(frameOfBits(i, bits, false))
			for _, pk := range pkts {
				if rng.Float64() < 0.1 {
					continue // lost
				}
				seen[i] = true
				vs, _ := r.Push(pk)
				completed += len(vs)
			}
		}
		st := r.Flush()
		return st.FramesComplete == completed &&
			completed+st.FramesDropped == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPacketizerDefaults(t *testing.T) {
	p := NewPacketizer(1, 0, 0)
	pkts := p.Video(frameOfBits(0, 8*100, false))
	if len(pkts) != 1 {
		t.Fatalf("packets = %d", len(pkts))
	}
	if pkts[0].Bytes != HeaderLen+100 {
		t.Errorf("bytes = %d", pkts[0].Bytes)
	}
}

// refReassembler is a map-based reassembler: the oracle for
// TestReassemblerMatchesMapReference. It keeps every fragment index and
// every closed frame seq in a map.
type refReassembler struct {
	depth   int
	pend    map[int]map[int]bool // frame seq -> fragment indices seen
	done    map[int]bool         // finished or abandoned frame seqs
	maxSeen int
	stats   Stats
	lastPkt uint16
	havePkt bool
}

func (r *refReassembler) push(pkt *Packet) (*codec.EncodedFrame, *codec.AudioFrame) {
	r.stats.Packets++
	if r.havePkt && pkt.Info.Seq != r.lastPkt+1 {
		r.stats.PacketGaps++
	}
	r.lastPkt, r.havePkt = pkt.Info.Seq, true
	if pkt.Data.Audio != nil {
		return nil, pkt.Data.Audio
	}
	ef := pkt.Data.Video
	if r.done[ef.Seq] {
		return nil, nil
	}
	frags := r.pend[ef.Seq]
	if frags == nil {
		frags = make(map[int]bool)
		r.pend[ef.Seq] = frags
	}
	frags[pkt.Data.FragIndex] = true
	if ef.Seq > r.maxSeen {
		r.maxSeen = ef.Seq
	}
	var complete *codec.EncodedFrame
	if len(frags) == pkt.Data.FragCount {
		delete(r.pend, ef.Seq)
		r.done[ef.Seq] = true
		r.stats.FramesComplete++
		complete = ef
	}
	for s := range r.pend {
		if s < r.maxSeen-r.depth {
			delete(r.pend, s)
			r.done[s] = true
			r.stats.FramesDropped++
		}
	}
	return complete, nil
}

// TestReassemblerMatchesMapReference delivers random streams, with
// fragments lost, duplicated, reordered within and beyond the window
// (so late fragments reach abandoned and finished frames), interleaved
// with audio and spanning many bitset words and frames wider than the
// 64-fragment mask, and checks that every push completes the same
// frames as the map-based reference, with the same Stats throughout.
func TestReassemblerMatchesMapReference(t *testing.T) {
	late, dropped, wide := 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pz := NewPacketizer(9, 1200, 30)
		var stream []*Packet
		frames := 50 + rng.Intn(250)
		for i := 0; i < frames; i++ {
			bytes := 100 + rng.Intn(6000)
			if rng.Intn(40) == 0 {
				bytes = 70000 + rng.Intn(30000) // more than 64 fragments
				wide++
			}
			stream = append(stream, pz.Video(frameOfBits(i, 8*bytes, i%30 == 0))...)
			if rng.Intn(3) == 0 {
				stream = append(stream, pz.Audio(&codec.AudioFrame{Seq: i, Bits: 800}))
			}
		}
		var delivered []*Packet
		for _, pk := range stream {
			switch x := rng.Float64(); {
			case x < 0.08: // lost
			case x < 0.14: // duplicated
				delivered = append(delivered, pk, pk)
			default:
				delivered = append(delivered, pk)
			}
		}
		for i := range delivered {
			// Mostly local reordering; now and then a packet arrives far
			// behind, after the window has closed its frame.
			reach := 4
			if rng.Intn(25) == 0 {
				reach = 200
			}
			if j := i + rng.Intn(reach+1); j < len(delivered) {
				delivered[i], delivered[j] = delivered[j], delivered[i]
			}
		}

		depth := 1 + rng.Intn(6)
		r := NewReassembler(depth)
		ref := &refReassembler{depth: depth, pend: map[int]map[int]bool{}, done: map[int]bool{}, maxSeen: -1}
		for n, pk := range delivered {
			if pk.Data.Video != nil && ref.done[pk.Data.Video.Seq] {
				late++
			}
			vids, au := r.Push(pk)
			want, wantAu := ref.push(pk)
			if len(vids) > 1 {
				t.Fatalf("seed %d push %d: one fragment completed %d frames", seed, n, len(vids))
			}
			var got *codec.EncodedFrame
			if len(vids) == 1 {
				got = vids[0]
			}
			if got != want || au != wantAu {
				t.Fatalf("seed %d push %d: completed %v audio %v, reference completed %v audio %v", seed, n, got, au, want, wantAu)
			}
			if got := r.StatsSnapshot(); got != ref.stats {
				t.Fatalf("seed %d push %d: stats %+v, reference %+v", seed, n, got, ref.stats)
			}
		}
		ref.stats.FramesDropped += len(ref.pend)
		if got := r.Flush(); got != ref.stats {
			t.Fatalf("seed %d: flushed stats %+v, reference %+v", seed, got, ref.stats)
		}
		dropped += ref.stats.FramesDropped
	}
	if late == 0 || dropped == 0 || wide == 0 {
		t.Errorf("streams exercised %d late fragments, %d abandoned frames and %d wide frames; want some of each", late, dropped, wide)
	}
}

// TestWideFramesReuseAssemblies sends only frames wider than the
// 64-fragment mask, some with fragments lost, so every assembly the
// reassembler recycles comes back with the fragment bitset of a frame
// that completed or was abandoned. Every push must complete the same
// frames as the map-based reference, with the same Stats.
func TestWideFramesReuseAssemblies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pz := NewPacketizer(9, 1200, 30)
	r := NewReassembler(2)
	ref := &refReassembler{depth: 2, pend: map[int]map[int]bool{}, done: map[int]bool{}, maxSeen: -1}
	complete := 0
	for i := 0; i < 60; i++ {
		for _, pk := range pz.Video(frameOfBits(i, 8*(70000+rng.Intn(60000)), false)) {
			if rng.Intn(80) == 0 {
				continue // lost: the frame is abandoned with some bits set
			}
			vids, _ := r.Push(pk)
			want, _ := ref.push(pk)
			if got := len(vids); got > 1 || (got == 1) != (want != nil) || (got == 1 && vids[0] != want) {
				t.Fatalf("frame %d fragment %d: completed %v, reference %v", i, pk.Data.FragIndex, vids, want)
			}
			if got := r.StatsSnapshot(); got != ref.stats {
				t.Fatalf("frame %d: stats %+v, reference %+v", i, got, ref.stats)
			}
			if want != nil {
				complete++
			}
		}
	}
	if complete == 0 || ref.stats.FramesDropped == 0 {
		t.Errorf("%d frames completed and %d were abandoned; want some of each", complete, ref.stats.FramesDropped)
	}
}
