package qoe

import (
	"math"
	"math/rand"
	"testing"

	"github.com/vcabench/vcabench/internal/codec"
	"github.com/vcabench/vcabench/internal/media"
)

func noisy(f *media.Frame, std float64, seed int64) *media.Frame {
	rng := rand.New(rand.NewSource(seed))
	g := f.Clone()
	for i := range g.Pix {
		v := float64(g.Pix[i]) + rng.NormFloat64()*std
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		g.Pix[i] = uint8(v)
	}
	return g
}

func testFrame(seed int64) *media.Frame {
	src := media.NewSource(media.LowMotion, media.QuickProfile, seed)
	return src.Next()
}

func TestPSNRIdentity(t *testing.T) {
	f := testFrame(1)
	if got := PSNR(f, f); got != PSNRCap {
		t.Errorf("PSNR(f,f) = %v, want cap %v", got, PSNRCap)
	}
}

func TestPSNRKnownNoise(t *testing.T) {
	f := testFrame(1)
	g := noisy(f, 5, 2)
	got := PSNR(f, g)
	// sigma=5 => MSE ~25 => PSNR ~34.2 dB (clipping pulls it up slightly).
	if got < 32 || got > 37 {
		t.Errorf("PSNR at sigma=5 = %v, want ~34", got)
	}
	worse := PSNR(f, noisy(f, 15, 3))
	if worse >= got {
		t.Errorf("more noise should lower PSNR: %v vs %v", worse, got)
	}
}

func TestSSIMBounds(t *testing.T) {
	f := testFrame(3)
	if s := SSIM(f, f); math.Abs(s-1) > 1e-9 {
		t.Errorf("SSIM(f,f) = %v", s)
	}
	g := noisy(f, 20, 4)
	s := SSIM(f, g)
	if s <= 0 || s >= 1 {
		t.Errorf("SSIM noisy = %v, want in (0,1)", s)
	}
	// Monotone in noise.
	if s2 := SSIM(f, noisy(f, 40, 5)); s2 >= s {
		t.Errorf("SSIM not monotone: %v then %v", s, s2)
	}
}

func TestSSIMTinyFrameFallback(t *testing.T) {
	a := media.NewFrame(4, 4)
	b := media.NewFrame(4, 4)
	for i := range a.Pix {
		a.Pix[i] = uint8(10 * i)
		b.Pix[i] = uint8(10 * i)
	}
	if s := SSIM(a, b); math.Abs(s-1) > 1e-9 {
		t.Errorf("tiny SSIM identity = %v", s)
	}
}

func TestVIFPBoundsAndMonotone(t *testing.T) {
	f := testFrame(6)
	if v := VIFP(f, f); math.Abs(v-1) > 0.02 {
		t.Errorf("VIFp(f,f) = %v, want ~1", v)
	}
	v1 := VIFP(f, noisy(f, 8, 7))
	v2 := VIFP(f, noisy(f, 25, 8))
	if !(1 > v1 && v1 > v2 && v2 > 0) {
		t.Errorf("VIFp ordering broken: 1 > %v > %v > 0", v1, v2)
	}
}

func TestVIFPBlurPenalized(t *testing.T) {
	f := testFrame(9)
	blurred := f.Resize(f.W/4, f.H/4).Resize(f.W, f.H)
	v := VIFP(f, blurred)
	if v >= 0.9 {
		t.Errorf("VIFp of blurred = %v, want well below 1", v)
	}
}

func TestGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PSNR(media.NewFrame(2, 2), media.NewFrame(3, 3))
}

func TestCompareVideo(t *testing.T) {
	p := media.QuickProfile
	src := media.NewSource(media.LowMotion, p, 11)
	var ref, disp []*media.Frame
	for i := 0; i < 20; i++ {
		f := src.Next()
		ref = append(ref, f)
		disp = append(disp, noisy(f, 6, int64(i)))
	}
	res := NewScorer().CompareVideo(ref, disp, 2)
	if res.Frames != 10 {
		t.Errorf("scored frames = %d", res.Frames)
	}
	if res.PSNR < 28 || res.PSNR > 40 {
		t.Errorf("PSNR = %v", res.PSNR)
	}
	if res.FreezeRatio != 0 {
		t.Errorf("freeze ratio = %v", res.FreezeRatio)
	}
	if res.String() == "" {
		t.Error("empty String")
	}
}

func TestCompareVideoFreezesAndNil(t *testing.T) {
	p := media.QuickProfile
	src := media.NewSource(media.LowMotion, p, 12)
	var ref, disp []*media.Frame
	frozen := src.Next()
	for i := 0; i < 10; i++ {
		ref = append(ref, src.Next())
		if i < 3 {
			disp = append(disp, nil) // nothing shown yet
		} else {
			disp = append(disp, frozen) // stale repeat
		}
	}
	res := NewScorer().CompareVideo(ref, disp, 1)
	// 3 nil slots + 6 repeats; the first stale frame at slot 3 is not
	// observable as a freeze => 9/10.
	if res.FreezeRatio != 0.9 {
		t.Errorf("freeze ratio = %v, want 0.9", res.FreezeRatio)
	}
	// Frozen/black output must score clearly worse than a live stream.
	if res.SSIM > 0.9 {
		t.Errorf("frozen SSIM = %v suspiciously high", res.SSIM)
	}
}

func TestCompareVideoLengthMismatchPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("CompareVideo", func() {
		NewScorer().CompareVideo(make([]*media.Frame, 3), make([]*media.Frame, 4), 1)
	})
	// A session panics when any receiver's length differs, not just the first.
	mustPanic("CompareSession", func() {
		NewScorer().CompareSession(make([]*media.Frame, 3),
			[][]*media.Frame{make([]*media.Frame, 3), make([]*media.Frame, 2)}, 1)
	})
}

func TestMOSIdentity(t *testing.T) {
	c := media.NewSpeech(2.0, rand.New(rand.NewSource(31)))
	mos := MOSLQO(c, c)
	if mos < 4.5 {
		t.Errorf("identity MOS = %v, want >= 4.5", mos)
	}
}

func TestMOSCleanCodecHigh(t *testing.T) {
	clip := media.NewSpeech(2.0, rand.New(rand.NewSource(32)))
	enc := codec.NewAudioEncoder(90_000)
	frames := enc.Encode(clip)
	ptrs := make([]*codec.AudioFrame, len(frames))
	for i := range frames {
		ptrs[i] = &frames[i]
	}
	out := codec.NewAudioDecoder(rand.New(rand.NewSource(1))).Decode(ptrs, clip.Rate, 90_000)
	mos := MOSLQO(clip, out)
	if mos < 3.8 {
		t.Errorf("clean 90kbps MOS = %v, want high", mos)
	}
}

func TestMOSDegradesWithLoss(t *testing.T) {
	clip := media.NewSpeech(3.0, rand.New(rand.NewSource(33)))
	enc := codec.NewAudioEncoder(45_000)
	frames := enc.Encode(clip)
	mosAt := func(lossEvery int) float64 {
		ptrs := make([]*codec.AudioFrame, len(frames))
		for i := range frames {
			if lossEvery > 0 && i%lossEvery == 0 {
				continue
			}
			ptrs[i] = &frames[i]
		}
		out := codec.NewAudioDecoder(rand.New(rand.NewSource(2))).Decode(ptrs, clip.Rate, 45_000)
		return MOSLQO(clip, out)
	}
	clean := mosAt(0)
	light := mosAt(10) // 10% loss
	heavy := mosAt(3)  // 33% loss
	if !(clean > light && light > heavy) {
		t.Errorf("MOS not monotone in loss: clean=%v light=%v heavy=%v", clean, light, heavy)
	}
	if heavy > 3.6 {
		t.Errorf("33%% loss MOS = %v, want clearly degraded", heavy)
	}
}

func TestMOSSilenceVsSpeech(t *testing.T) {
	c := media.NewSpeech(2.0, rand.New(rand.NewSource(34)))
	dead := &media.AudioClip{Rate: c.Rate, Samples: make([]float64, len(c.Samples))}
	if mos := MOSLQO(c, dead); mos > 2.5 {
		t.Errorf("speech vs silence MOS = %v, want low", mos)
	}
}

func TestMOSShortClip(t *testing.T) {
	tiny := &media.AudioClip{Rate: 16000, Samples: make([]float64, 10)}
	if mos := MOSLQO(tiny, tiny); mos != 1 {
		t.Errorf("short-clip MOS = %v, want 1 (unmeasurable)", mos)
	}
}

func TestFFTKnownSpectrum(t *testing.T) {
	// A 1 kHz tone at 16 kHz in a 512 FFT lands in bin 32.
	c := media.NewTone(0.1, 1000, 16000)
	buf := make([]complex128, 512)
	for i := 0; i < 512; i++ {
		buf[i] = complex(c.Samples[i], 0)
	}
	fft(buf)
	peak, peakBin := 0.0, 0
	for k := 1; k < 256; k++ {
		m := cabs2(buf[k])
		if m > peak {
			peak, peakBin = m, k
		}
	}
	if peakBin != 32 {
		t.Errorf("peak bin = %d, want 32", peakBin)
	}
}

func cabs2(z complex128) float64 { return real(z)*real(z) + imag(z)*imag(z) }
