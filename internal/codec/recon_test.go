package codec

import (
	"bytes"
	"math/rand"
	"testing"

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
		{"low-motion", func() media.Source { return media.NewLowMotion(p, 11) }},
		{"high-motion", func() media.Source { return media.NewHighMotion(p, 12) }},
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
	p := media.QuickProfile
	src := c.feed()
	enc := NewVideoEncoder(VideoEncoderConfig{
		FPS: p.FPS, TargetBps: c.target, BitScale: BitScaleFor(p), Seed: reconSeed,
	})
	frames := make([]EncodedFrame, 4*p.FPS)
	for i := range frames {
		frames[i] = enc.Encode(src.Next())
	}
	return frames
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

func TestDeferredReconBitIdentical(t *testing.T) {
	seenScale := map[int]bool{}
	skipped := 0
	for _, c := range reconCases() {
		want, scales := eagerRecons(encodeCase(c))
		for _, s := range scales {
			seenScale[s] = true
		}
		for _, w := range want {
			if w == nil {
				skipped++
			}
		}

		orders := []struct {
			name  string
			build func(frames []EncodedFrame) []*media.Frame
		}{
			{"encode-order", func(frames []EncodedFrame) []*media.Frame {
				got := make([]*media.Frame, len(frames))
				for i := range frames {
					got[i] = frames[i].Recon()
				}
				return got
			}},
			{"reverse-order", func(frames []EncodedFrame) []*media.Frame {
				got := make([]*media.Frame, len(frames))
				for i := len(frames) - 1; i >= 0; i-- {
					got[i] = frames[i].Recon()
				}
				return got
			}},
			// Every other frame is built through a by-value copy; the
			// originals and a second copy must then share its result.
			{"copies", func(frames []EncodedFrame) []*media.Frame {
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
		}
		for _, o := range orders {
			frames := encodeCase(c)
			got := o.build(frames)
			for i := range frames {
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
	}
	if skipped == 0 {
		t.Error("no skipped frame")
	}
}

// TestDecodersShareReconstructions feeds two decoders copies of one sent
// log, as two receivers of one sender do. They must show the very same
// frames, since downstream QoE caches compare frames by identity.
func TestDecodersShareReconstructions(t *testing.T) {
	sent := encodeCase(reconCase{"high-motion", func() media.Source {
		return media.NewHighMotion(media.QuickProfile, 3)
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
