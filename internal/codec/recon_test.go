package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/vcabench/vcabench/internal/media"
)

// reconCase is one encoded stream for the deferred-reconstruction tests.
type reconCase struct {
	name   string
	feed   func() media.Source
	target float64
}

func reconCases() []reconCase {
	p := media.QuickProfile
	feeds := []struct {
		name string
		src  func() media.Source
	}{
		{"low-motion", func() media.Source { return media.NewSource(media.LowMotion, p, 11) }},
		{"high-motion", func() media.Source { return media.NewSource(media.HighMotion, p, 12) }},
		{"flash", func() media.Source { return media.NewFlash(p, 2.0) }},
	}
	// 2.5 Mbps codes at full size, 300 kbps at half, 60 kbps at a
	// quarter, and 20 kbps starves the encoder into skipping frames.
	var cases []reconCase
	for _, f := range feeds {
		for _, bps := range []float64{2_500_000, 300_000, 60_000, 20_000} {
			cases = append(cases, reconCase{f.name, f.src, bps})
		}
	}
	return cases
}

const reconSeed = 5

// encodeCase encodes four seconds of c's feed with a fresh encoder.
func encodeCase(c reconCase) []EncodedFrame {
	frames, _ := encodeCaseOn(c, nil)
	return frames
}

// encodeCaseOn is encodeCase on an encoder whose reconstructions draw
// on pool.
func encodeCaseOn(c reconCase, pool *media.FramePool) ([]EncodedFrame, *VideoEncoder) {
	p := media.QuickProfile
	src := c.feed()
	enc := NewVideoEncoderOn(VideoEncoderConfig{
		FPS: p.FPS, TargetBps: c.target, BitScale: BitScaleFor(p), Seed: reconSeed,
	}, pool)
	frames := make([]EncodedFrame, 4*p.FPS)
	for i := range frames {
		frames[i] = enc.Encode(src.Next())
	}
	return frames, enc
}

// eagerRecons quantizes every coded frame in encode order on its own
// generator, the way Encode did before reconstruction was deferred. It
// returns nil for skipped frames and each coded frame's ladder scale.
func eagerRecons(frames []EncodedFrame) (out []*media.Frame, scales []int) {
	rng := rand.New(rand.NewSource(reconSeed))
	quantize := func(f *media.Frame, qstep float64) *media.Frame {
		r := media.NewFrame(f.W, f.H)
		half := qstep / 2
		for i := range r.Pix {
			n := (rng.Float64()*2 - 1) * half
			v := float64(f.Pix[i]) + n
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			r.Pix[i] = uint8(v)
		}
		return r
	}
	out = make([]*media.Frame, len(frames))
	scales = make([]int, len(frames))
	for i := range frames {
		ef := &frames[i]
		if ef.Skipped {
			continue
		}
		w, h := ef.recon.encW, ef.recon.encH
		scales[i] = ef.Source.W / w
		if w == ef.Source.W && h == ef.Source.H {
			out[i] = quantize(ef.Source, ef.QStep)
		} else {
			out[i] = quantize(ef.Source.Resize(w, h), ef.QStep).Resize(ef.Source.W, ef.Source.H)
		}
	}
	return out, scales
}

// releaseSet picks the coded frames of one case to release: the first
// and the last coded frame and a seeded random half of the others.
func releaseSet(want []*media.Frame, seed int64) map[int]bool {
	rng := rand.New(rand.NewSource(seed))
	first, last := -1, -1
	set := map[int]bool{}
	for i, w := range want {
		if w == nil {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
		if rng.Intn(2) == 0 {
			set[i] = true
		}
	}
	set[first], set[last] = true, true
	return set
}

// panics reports whether f panics.
func panics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

func TestDeferredReconBitIdentical(t *testing.T) {
	seenScale := map[int]bool{}
	releasedScale := map[int]bool{}
	skipped := 0
	for ci, c := range reconCases() {
		want, scales := eagerRecons(encodeCase(c))
		for _, s := range scales {
			seenScale[s] = true
		}
		for _, w := range want {
			if w == nil {
				skipped++
			}
		}
		released := releaseSet(want, int64(ci))
		for i := range released {
			releasedScale[scales[i]] = true
		}

		// Each order builds the frames it does not release; released
		// entries of got stay nil.
		orders := []struct {
			name    string
			release bool
			build   func(frames []EncodedFrame) []*media.Frame
		}{
			{"encode-order", false, func(frames []EncodedFrame) []*media.Frame {
				got := make([]*media.Frame, len(frames))
				for i := range frames {
					got[i] = frames[i].Recon()
				}
				return got
			}},
			{"reverse-order", false, func(frames []EncodedFrame) []*media.Frame {
				got := make([]*media.Frame, len(frames))
				for i := len(frames) - 1; i >= 0; i-- {
					got[i] = frames[i].Recon()
				}
				return got
			}},
			// Every other frame is built through a by-value copy; the
			// originals and a second copy must then share its result.
			{"copies", false, func(frames []EncodedFrame) []*media.Frame {
				copies := append([]EncodedFrame(nil), frames...)
				got := make([]*media.Frame, len(frames))
				for i := range frames {
					if i%2 == 0 {
						got[i] = copies[i].Recon()
					} else {
						got[i] = frames[i].Recon()
					}
				}
				again := append([]EncodedFrame(nil), frames...)
				for i := range frames {
					if frames[i].Recon() != got[i] || copies[i].Recon() != got[i] || again[i].Recon() != got[i] {
						t.Errorf("%s@%.0f: frame %d: copies return different frames", c.name, c.target, i)
					}
				}
				return got
			}},
			// Materialize builds the kept frames in encode order.
			{"release-encode-order", true, func(frames []EncodedFrame) []*media.Frame {
				keep := map[*media.Frame]bool{}
				for i := range frames {
					if frames[i].recon != nil && !released[i] {
						keep[frames[i].recon.handle()] = true
					}
				}
				Materialize(frames, keep)
				got := make([]*media.Frame, len(frames))
				for i := range frames {
					if !released[i] {
						got[i] = frames[i].Recon()
					}
				}
				return got
			}},
			{"release-reverse-order", true, func(frames []EncodedFrame) []*media.Frame {
				for i := range released {
					frames[i].recon.release()
				}
				got := make([]*media.Frame, len(frames))
				for i := len(frames) - 1; i >= 0; i-- {
					if !released[i] {
						got[i] = frames[i].Recon()
					}
				}
				return got
			}},
		}
		for _, o := range orders {
			frames := encodeCase(c)
			got := o.build(frames)
			for i := range frames {
				if o.release && released[i] {
					if r := frames[i].recon; r.frame != nil && r.frame.Pix != nil {
						t.Fatalf("%s@%.0f %s: released frame %d has pixels", c.name, c.target, o.name, i)
					}
					if !panics(func() { frames[i].Recon() }) {
						t.Fatalf("%s@%.0f %s: Recon of released frame %d did not panic", c.name, c.target, o.name, i)
					}
					continue
				}
				if (got[i] == nil) != (want[i] == nil) {
					t.Fatalf("%s@%.0f %s: frame %d: recon nil = %v, want %v",
						c.name, c.target, o.name, i, got[i] == nil, want[i] == nil)
				}
				if got[i] == nil {
					continue
				}
				if !bytes.Equal(got[i].Pix, want[i].Pix) {
					t.Fatalf("%s@%.0f %s: frame %d: pixels differ from eager quantization",
						c.name, c.target, o.name, i)
				}
				if frames[i].Recon() != got[i] {
					t.Errorf("%s@%.0f %s: frame %d: second call built a new frame", c.name, c.target, o.name, i)
				}
			}
		}
	}
	for _, s := range []int{1, 2, 4} {
		if !seenScale[s] {
			t.Errorf("no frame coded at ladder scale %d", s)
		}
		if !releasedScale[s] {
			t.Errorf("no frame released at ladder scale %d", s)
		}
	}
	if skipped == 0 {
		t.Error("no skipped frame")
	}
}

// seqSource is a rand.Source that replays vals cyclically and counts
// the draws taken.
type seqSource struct {
	vals  []int64
	draws int
}

func (s *seqSource) Int63() int64 {
	v := s.vals[s.draws%len(s.vals)]
	s.draws++
	return v
}

func (s *seqSource) Seed(int64) {}

// TestSkipFloat64sMatchesFloat64 pins the draw-only advance against
// Float64 at the values around its redraw threshold. A real generator
// reaches the redraw with probability 2^-54 per draw, so no stream of a
// fixed seed covers it.
func TestSkipFloat64sMatchesFloat64(t *testing.T) {
	const edge = 1<<63 - 512
	if f := float64(int64(edge-1)) / (1 << 63); f >= 1 {
		t.Fatalf("2^63-513 rounds to %v, want below 1", f)
	}
	if f := float64(int64(edge)) / (1 << 63); f != 1 {
		t.Fatalf("2^63-512 rounds to %v, want 1", f)
	}
	patterns := [][]int64{
		{edge - 1, edge, math.MaxInt64, 0},
		{edge, edge, 7, edge - 1},
		{math.MaxInt64, edge - 1, edge, 1 << 62},
		{0, 1, 2},
	}
	for pi, vals := range patterns {
		for n := 0; n <= 2*len(vals)+1; n++ {
			ref := &seqSource{vals: vals}
			rr := rand.New(ref)
			for i := 0; i < n; i++ {
				if rr.Float64() >= 1 {
					t.Fatal("Float64 returned 1")
				}
			}
			got := &seqSource{vals: vals}
			skipFloat64s(rand.New(got), n)
			if got.draws != ref.draws {
				t.Errorf("pattern %d, n=%d: skipFloat64s took %d draws, Float64 took %d",
					pi, n, got.draws, ref.draws)
			}
		}
	}
	// On a real generator the two leave the same state behind.
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 10_000; i++ {
		a.Float64()
	}
	skipFloat64s(b, 10_000)
	if a.Int63() != b.Int63() {
		t.Error("skipFloat64s left the generator in a different state than Float64")
	}
}

// TestShowThenDecodeShareHandles runs a Show-only decoder over a log,
// then a decoding one over a copy. Show builds nothing, and both return
// the same handle at every slot.
func TestShowThenDecodeShareHandles(t *testing.T) {
	sent := encodeCase(reconCase{"high-motion", func() media.Source {
		return media.NewSource(media.HighMotion, media.QuickProfile, 4)
	}, 300_000})
	lost := func(i int) bool { return i >= 10 && i < 20 }
	show := NewVideoDecoder()
	handles := make([]*media.Frame, len(sent))
	for i := range sent {
		if lost(i) {
			handles[i] = show.Show(nil)
		} else {
			handles[i] = show.Show(&sent[i])
		}
		if handles[i] == nil || handles[i].Pix != nil {
			t.Fatalf("slot %d: Show returned %v, want an unbuilt handle", i, handles[i])
		}
	}
	recv := append([]EncodedFrame(nil), sent...)
	dec := NewVideoDecoder()
	for i := range recv {
		var out *media.Frame
		if lost(i) {
			out = dec.Decode(nil)
		} else {
			out = dec.Decode(&recv[i])
		}
		if out != handles[i] {
			t.Fatalf("slot %d: Decode and Show return different frames", i)
		}
		if len(out.Pix) != out.W*out.H {
			t.Fatalf("slot %d: Decode returned an unbuilt frame", i)
		}
	}
}

// TestDecodersShareReconstructions feeds two decoders copies of one sent
// log, as two receivers of one sender do. They must show the very same
// frames, since downstream QoE caches compare frames by identity.
func TestDecodersShareReconstructions(t *testing.T) {
	sent := encodeCase(reconCase{"high-motion", func() media.Source {
		return media.NewSource(media.HighMotion, media.QuickProfile, 3)
	}, 300_000})
	// Receiver B decodes first and loses frames 10-19, so its request
	// for frame 20 builds them before receiver A asks for them.
	recvB := append([]EncodedFrame(nil), sent...)
	decB := NewVideoDecoder()
	outB := make([]*media.Frame, len(sent))
	for i := range recvB {
		if i >= 10 && i < 20 {
			outB[i] = decB.Decode(nil)
		} else {
			outB[i] = decB.Decode(&recvB[i])
		}
	}
	recvA := append([]EncodedFrame(nil), sent...)
	decA := NewVideoDecoder()
	outA := make([]*media.Frame, len(sent))
	for i := range recvA {
		outA[i] = decA.Decode(&recvA[i])
	}

	gop := 2 * media.QuickProfile.FPS
	for i := range sent {
		if outA[i] == nil {
			t.Fatalf("slot %d: receiver A shows nothing", i)
		}
		if i < 10 || i >= gop {
			if outB[i] != outA[i] {
				t.Errorf("slot %d: receivers show different frames", i)
			}
		} else if outB[i] != outA[9] {
			t.Errorf("slot %d: receiver B not frozen on A's frame 9", i)
		}
	}
}

// TestReconFitsItsSizeClass guards the lag path's allocations: Encode
// allocates a recon for every coded frame, decoded or not, and one more
// field would move it from the 48-byte size class to 64.
func TestReconFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(recon{}); n > 48 {
		t.Errorf("recon is %d bytes, want at most 48", n)
	}
}

// clonedSource hands out a deep copy of every frame of its source, so
// no two ticks share a frame.
type clonedSource struct{ media.Source }

func (s clonedSource) Next() *media.Frame { return s.Source.Next().Clone() }

// TestSharedFlashFramesEncodeLikeCopies feeds one encoder the flash
// feed's two shared frames and another a fresh copy of every frame. The
// rate model's decisions and every reconstruction must agree, at rates
// from full size down to the stalling encoder.
func TestSharedFlashFramesEncodeLikeCopies(t *testing.T) {
	p := media.QuickProfile
	for _, bps := range []float64{2_500_000, 300_000, 60_000, 20_000} {
		shared := encodeCase(reconCase{"flash", func() media.Source { return media.NewFlash(p, 2.0) }, bps})
		copied := encodeCase(reconCase{"flash-copies", func() media.Source { return clonedSource{media.NewFlash(p, 2.0)} }, bps})
		for i := range shared {
			s, c := &shared[i], &copied[i]
			if s.Seq != c.Seq || s.Keyframe != c.Keyframe || s.Skipped != c.Skipped ||
				s.Bits != c.Bits || math.Float64bits(s.QStep) != math.Float64bits(c.QStep) {
				t.Fatalf("%g bps, frame %d: shared feed coded %+v, copies %+v", bps, i, *s, *c)
			}
			if rs, rc := s.Recon(), c.Recon(); (rs == nil) != (rc == nil) || rs != nil && !bytes.Equal(rs.Pix, rc.Pix) {
				t.Fatalf("%g bps, frame %d: reconstructions differ", bps, i)
			}
		}
	}
}

// TestPooledReconsMatchUnpooled builds every case's reconstructions on
// an encoder whose pool already parks 0xA5-filled storage of every
// ladder size, and compares them bit for bit with an unpooled encoder's:
// reconstruct and the ladder must write every pixel before reading it.
// Recycle must panic while a frame is pending, and once every frame is
// settled it must return exactly the built reconstructions' storage.
func TestPooledReconsMatchUnpooled(t *testing.T) {
	p := media.QuickProfile
	const dirty = 3 // parked buffers per ladder size
	for _, c := range reconCases() {
		want := encodeCase(c)
		pool := media.NewFramePool()
		for _, scale := range []int{1, 2, 4} {
			var fs []*media.Frame
			for i := 0; i < dirty; i++ {
				f := pool.Get(p.W/scale, p.H/scale)
				for j := range f.Pix {
					f.Pix[j] = 0xA5
				}
				fs = append(fs, f)
			}
			for _, f := range fs {
				pool.Put(f)
			}
		}
		got, enc := encodeCaseOn(c, pool)
		if !panics(func() { enc.Recycle(got) }) {
			t.Fatalf("%s@%.0f: Recycle of pending frames did not panic", c.name, c.target)
		}
		// Build the first half, release the rest.
		keep := map[*media.Frame]bool{}
		for i := range got[:len(got)/2] {
			if got[i].recon != nil {
				keep[got[i].recon.handle()] = true
			}
		}
		Materialize(got, keep)
		var built []*media.Frame
		for i := range got {
			if got[i].recon == nil || !keep[got[i].recon.handle()] {
				continue
			}
			g, w := got[i].Recon(), want[i].Recon()
			if !bytes.Equal(g.Pix, w.Pix) {
				t.Fatalf("%s@%.0f: frame %d: reconstruction on dirty storage differs from unpooled", c.name, c.target, i)
			}
			built = append(built, g)
		}
		enc.Recycle(got)
		for _, f := range built {
			if f.Pix != nil {
				t.Fatalf("%s@%.0f: Recycle left a reconstruction its pixels", c.name, c.target)
			}
		}
		// The first builds took the dirty buffers; every buffer is back.
		if n, want := pool.Parked()[p.W*p.H], max(dirty, len(built)); len(built) < dirty || n != want {
			t.Errorf("%s@%.0f: %d full-size buffers parked after Recycle of %d built, want %d",
				c.name, c.target, n, len(built), want)
		}
	}
}
