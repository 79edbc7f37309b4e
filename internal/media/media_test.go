package media

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestFrameBasics(t *testing.T) {
	f := NewFrame(4, 3)
	if len(f.Pix) != 12 {
		t.Fatalf("pix len = %d", len(f.Pix))
	}
	f.Set(2, 1, 200)
	if f.At(2, 1) != 200 {
		t.Error("Set/At broken")
	}
	g := f.Clone()
	g.Set(2, 1, 0)
	if f.At(2, 1) != 200 {
		t.Error("Clone shares storage")
	}
}

func TestNewFramePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewFrame(0, 5)
}

func TestMeanAbsDiff(t *testing.T) {
	a, b := NewFrame(2, 2), NewFrame(2, 2)
	for i := range b.Pix {
		b.Pix[i] = 10
	}
	if d := MeanAbsDiff(a, b); d != 10 {
		t.Errorf("MAD = %v, want 10", d)
	}
	if d := MeanAbsDiff(a, a); d != 0 {
		t.Errorf("self MAD = %v", d)
	}
}

func TestMeanAbsDiffGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MeanAbsDiff(NewFrame(2, 2), NewFrame(3, 2))
}

func TestCropOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewFrame(4, 4).cropInto(NewFrame(4, 4), 2, 2)
}

func TestResizeIdentityAndScale(t *testing.T) {
	f := NewFrame(10, 10)
	for i := range f.Pix {
		f.Pix[i] = uint8(i)
	}
	same := f.Resize(10, 10)
	if MeanAbsDiff(f, same) != 0 {
		t.Error("identity resize changed pixels")
	}
	up := f.Resize(20, 20)
	down := up.Resize(10, 10)
	if MeanAbsDiff(f, down) > 3 {
		t.Errorf("up/down resize error = %v", MeanAbsDiff(f, down))
	}
}

func TestLowMotionIsLow(t *testing.T) {
	p := QuickProfile
	lm := NewSource(LowMotion, p, 1)
	hm := NewSource(HighMotion, p, 1)
	lmMAD, hmMAD := avgMotion(lm, 30), avgMotion(hm, 30)
	if lmMAD >= hmMAD {
		t.Errorf("low-motion MAD %v >= high-motion MAD %v", lmMAD, hmMAD)
	}
	if hmMAD < 5 {
		t.Errorf("high-motion MAD %v suspiciously small", hmMAD)
	}
	if lmMAD > hmMAD/2 {
		t.Errorf("classes not well separated: %v vs %v", lmMAD, hmMAD)
	}
}

func avgMotion(s Source, n int) float64 {
	prev := s.Next()
	var sum float64
	for i := 0; i < n; i++ {
		f := s.Next()
		sum += MeanAbsDiff(prev, f)
		prev = f
	}
	return sum / float64(n)
}

func TestSourceDeterminism(t *testing.T) {
	for _, class := range []MotionClass{LowMotion, HighMotion} {
		a := NewSource(class, QuickProfile, 42)
		b := NewSource(class, QuickProfile, 42)
		for i := 0; i < 10; i++ {
			if MeanAbsDiff(a.Next(), b.Next()) != 0 {
				t.Errorf("%v source not deterministic at frame %d", class, i)
			}
		}
	}
}

func TestFlashSource(t *testing.T) {
	p := QuickProfile // 10 fps
	s := NewFlash(p, 2.0)
	frames := Record(s, 45)
	for i, f := range frames {
		bright := f.SpatialDetail() > 10
		if IsFlashFrame(p, 2.0, i) != bright {
			t.Errorf("frame %d: flash=%v bright=%v", i, IsFlashFrame(p, 2.0, i), bright)
		}
	}
	// Exactly 2 flash frames per 20-frame period at 10fps.
	flashes := 0
	for i := 0; i < 40; i++ {
		if IsFlashFrame(p, 2.0, i) {
			flashes++
		}
	}
	if flashes != 4 {
		t.Errorf("flash frames in 2 periods = %d, want 4", flashes)
	}
}

func TestSceneCutsProduceSpikes(t *testing.T) {
	p := QuickProfile
	s := NewSource(HighMotion, p, 9)
	prev := s.Next()
	cuts := 0
	var base float64
	var mads []float64
	for i := 1; i < p.FPS*13; i++ {
		f := s.Next()
		mads = append(mads, MeanAbsDiff(prev, f))
		prev = f
	}
	for _, m := range mads {
		base += m
	}
	base /= float64(len(mads))
	for _, m := range mads {
		if m > base*2.0 {
			cuts++
		}
	}
	if cuts < 2 {
		t.Errorf("expected >=2 scene-cut spikes in 13s, got %d", cuts)
	}
}

func TestSpeechProperties(t *testing.T) {
	c := NewSpeech(2.0, rand.New(rand.NewSource(5)))
	if c.Rate != DefaultAudioRate {
		t.Errorf("rate = %d", c.Rate)
	}
	if len(c.Samples) != 2*DefaultAudioRate {
		t.Errorf("samples = %d, want 2 s at %d Hz", len(c.Samples), DefaultAudioRate)
	}
	r := rms(c)
	if r < 0.02 || r > 0.5 {
		t.Errorf("speech RMS = %v out of plausible range", r)
	}
	// Determinism.
	d := NewSpeech(2.0, rand.New(rand.NewSource(5)))
	for i := range c.Samples {
		if c.Samples[i] != d.Samples[i] {
			t.Fatal("speech not deterministic")
		}
	}
	// Contains pauses: some 50ms window with tiny energy.
	win := c.Rate / 20
	minRMS := math.Inf(1)
	for i := 0; i+win < len(c.Samples); i += win {
		w := c.Slice(i, i+win)
		if v := rms(w); v < minRMS {
			minRMS = v
		}
	}
	if minRMS > r/3 {
		t.Errorf("no pauses found: min window RMS %v vs overall %v", minRMS, r)
	}
}

// rms is the clip's root-mean-square level.
func rms(c *AudioClip) float64 {
	if len(c.Samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range c.Samples {
		sum += s * s
	}
	return math.Sqrt(sum / float64(len(c.Samples)))
}

func TestToneAndSlice(t *testing.T) {
	c := NewTone(1, 1000, 8000)
	if len(c.Samples) != 8000 {
		t.Errorf("len = %d", len(c.Samples))
	}
	s := c.Slice(-5, 4000)
	if len(s.Samples) != 4000 {
		t.Errorf("slice len = %d", len(s.Samples))
	}
	if e := c.Slice(5000, 100); len(e.Samples) != 0 {
		t.Error("inverted slice should be empty")
	}
}

// Property: cropInto copies exactly the requested rectangle for arbitrary
// in-bounds geometry.
func TestCropProperty(t *testing.T) {
	f := func(w8, h8, x8, y8, cw8, ch8 uint8) bool {
		w := int(w8%32) + 1
		h := int(h8%32) + 1
		x0 := int(x8) % w
		y0 := int(y8) % h
		cw := int(cw8)%(w-x0) + 1
		ch := int(ch8)%(h-y0) + 1
		fr := NewFrame(w, h)
		for i := range fr.Pix {
			fr.Pix[i] = uint8(i)
		}
		g := NewFrame(cw, ch)
		fr.cropInto(g, x0, y0)
		if g.W != cw || g.H != ch {
			return false
		}
		for y := 0; y < ch; y++ {
			for x := 0; x < cw; x++ {
				if g.At(x, y) != fr.At(x0+x, y0+y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMotionClassString(t *testing.T) {
	if LowMotion.String() != "low-motion" || HighMotion.String() != "high-motion" {
		t.Error("MotionClass.String broken")
	}
}

// TestIsFlashFrameMatchesEmission pins the IsFlashFrame oracle against
// frames a NewFlash feed actually emits: a frame is "flash" iff its mean
// luma is bright, and the oracle must agree frame by frame — including
// at the short-period clamp, where the period floors at FlashFrames.
func TestIsFlashFrameMatchesEmission(t *testing.T) {
	cases := []struct {
		p         Profile
		periodSec float64
	}{
		{Profile{W: 32, H: 24, FPS: 10}, 2.0},
		{Profile{W: 32, H: 24, FPS: 30}, 2.0},
		{Profile{W: 16, H: 16, FPS: 10}, 0.7},
		{Profile{W: 16, H: 16, FPS: 10}, 0.01}, // clamps to FlashFrames
	}
	for _, c := range cases {
		src := NewFlash(c.p, c.periodSec)
		frames := Record(src, 4*c.p.FPS)
		for i, f := range frames {
			var sum int
			for _, v := range f.Pix {
				sum += int(v)
			}
			bright := sum > len(f.Pix)*50
			if got := IsFlashFrame(c.p, c.periodSec, i); got != bright {
				t.Fatalf("fps=%d period=%g frame %d: IsFlashFrame=%v but emitted brightness says %v",
					c.p.FPS, c.periodSec, i, got, bright)
			}
		}
	}
}

// TestFramePoolCycleAllocFree pins the pooled-frame satellite: once the
// pool holds buffers of the working sizes, a resize-ladder style cycle
// (pooled downscale, pooled scratch, both returned) costs zero heap
// allocations per iteration.
func TestFramePoolCycleAllocFree(t *testing.T) {
	p := NewFramePool()
	src := NewFrame(64, 48)
	for i := range src.Pix {
		src.Pix[i] = uint8(i * 31)
	}
	cycle := func() {
		small := Frame{W: 32, H: 24}
		p.Alloc(&small)
		src.ResizeInto(&small)
		scratch := Frame{W: 32, H: 24}
		p.Alloc(&scratch)
		copy(scratch.Pix, small.Pix)
		p.Put(&small)
		p.Put(&scratch)
	}
	cycle() // warm: seed the 32x24 bucket
	if avg := testing.AllocsPerRun(200, cycle); avg > 0.05 {
		t.Errorf("pooled frame cycle allocates %.2f objects/op, want 0", avg)
	}
}

// TestFramePoolRecyclesByPixelCount pins the bucket contract: storage
// returned to the pool comes back from the next Get with the same pixel
// count — including across geometries, which Get retags — and always
// in a new frame, while the returned frame is left without pixels.
func TestFramePoolRecyclesByPixelCount(t *testing.T) {
	p := NewFramePool()
	f := p.Get(16, 12)
	storage := &f.Pix[0]
	p.Put(f)
	if f.Pix != nil {
		t.Fatal("Put left the returned frame its pixels")
	}
	g := p.Get(16, 12)
	if g == f {
		t.Fatal("Get returned a returned frame: frame identities must never be reused")
	}
	if &g.Pix[0] != storage {
		t.Fatal("same-size Get did not recycle the returned storage")
	}
	p.Put(g)
	h := p.Get(12, 16) // 192 pixels too: same bucket, new geometry
	if &h.Pix[0] != storage {
		t.Fatal("equal-pixel-count Get did not recycle the returned storage")
	}
	if h.W != 12 || h.H != 16 || len(h.Pix) != 192 {
		t.Fatalf("recycled storage not retagged: %dx%d with %d pixels, want 12x16", h.W, h.H, len(h.Pix))
	}
	if got := p.Parked(); len(got) != 0 {
		t.Errorf("pool parks %v while its one buffer is out", got)
	}
	p.Put(h)
	if got := p.Parked(); len(got) != 1 || got[192] != 1 {
		t.Errorf("pool parks %v, want one 192-pixel buffer", got)
	}
}

// TestFramePoolPutRejectsForeignAndRepeat pins that a pool takes back
// only storage it handed out and has not taken back since.
func TestFramePoolPutRejectsForeignAndRepeat(t *testing.T) {
	p := NewFramePool()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	f := p.Get(4, 4)
	p.Put(f)
	mustPanic("returned twice", func() { p.Put(f) })
	mustPanic("foreign storage", func() { p.Put(NewFrame(4, 4)) })
	mustPanic("another pool's storage", func() { p.Put(NewFramePool().Get(4, 4)) })
	mustPanic("Alloc over pixels", func() { p.Alloc(NewFrame(4, 4)) })
}

// TestNilFramePoolAllocates pins the unpooled path: a nil pool's Get
// allocates zeroed frames and its Put does nothing.
func TestNilFramePoolAllocates(t *testing.T) {
	var p *FramePool
	f := p.Get(3, 2)
	if f.W != 3 || f.H != 2 || len(f.Pix) != 6 {
		t.Fatalf("nil pool Get: %dx%d with %d pixels", f.W, f.H, len(f.Pix))
	}
	for _, v := range f.Pix {
		if v != 0 {
			t.Fatal("nil pool Get returned dirty pixels")
		}
	}
	p.Put(f)
	if f.Pix == nil {
		t.Error("nil pool Put took the frame's pixels")
	}
}

// TestPooledSourcesMatchUnpooled pins NewSourceOn: both motion feeds
// give the same pixels on a pool, dirty storage included, as they do
// unpooled, and every frame is new.
func TestPooledSourcesMatchUnpooled(t *testing.T) {
	p := QuickProfile
	for _, class := range []MotionClass{LowMotion, HighMotion} {
		want := Record(NewSource(class, p, 5), 50)
		pool := NewFramePool()
		src := NewSourceOn(class, p, rand.New(rand.NewSource(5)), pool)
		var prev *Frame
		for i := range want {
			got := src.Next()
			if got == prev {
				t.Fatalf("%v frame %d: pooled source repeated a frame", class, i)
			}
			if !bytes.Equal(got.Pix, want[i].Pix) {
				t.Fatalf("%v frame %d: pooled pixels differ from unpooled", class, i)
			}
			if prev != nil {
				for j := range prev.Pix {
					prev.Pix[j] = 0xA5
				}
				pool.Put(prev)
			}
			prev = got
		}
	}
}

// TestMeanAbsDiffSelfShortCircuit pins the same-pointer short-circuit to
// the kernel: a frame against itself must give exactly what the SAD pass
// gives against a deep copy.
func TestMeanAbsDiffSelfShortCircuit(t *testing.T) {
	for _, f := range []*Frame{
		NewFrame(7, 5),
		NewSource(HighMotion, QuickProfile, 3).Next(),
		NewFlash(Profile{W: 33, H: 17, FPS: 10}, 1).Next(),
	} {
		got, want := MeanAbsDiff(f, f), MeanAbsDiff(f, f.Clone())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%dx%d: MeanAbsDiff(f, f) = %v, against a clone %v", f.W, f.H, got, want)
		}
	}
}

// flashReference builds the flash feed's checkerboard independently of
// the source: 4x4 cells, bright (235) where the cell coordinates sum to
// an even number, black elsewhere.
func flashReference(w, h int) *Frame {
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if (x/4+y/4)%2 == 0 {
				f.Pix[y*w+x] = 235
			}
		}
	}
	return f
}

// TestFlashFeedReturnsTwoFrames pins the shared-frame flash feed: over
// several periods, Next returns exactly two distinct frames, the blank
// one all black and the flash one the reference checkerboard, each on
// the ticks IsFlashFrame names. Four feeds of one geometry run at once
// (under -race, a write to a shared image would race), and all four
// return the same two frames.
func TestFlashFeedReturnsTwoFrames(t *testing.T) {
	p := Profile{W: 30, H: 22, FPS: 10}
	const period = 0.5
	blank, flash := NewFrame(p.W, p.H), flashReference(p.W, p.H)
	seen := make([]map[*Frame]bool, 4)
	var wg sync.WaitGroup
	for k := range seen {
		seen[k] = make(map[*Frame]bool)
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := NewFlash(p, period)
			for i := 0; i < 3*flashPeriodFrames(p, period); i++ {
				f := src.Next()
				seen[k][f] = true
				want := blank
				if IsFlashFrame(p, period, i) {
					want = flash
				}
				if f.W != p.W || f.H != p.H || string(f.Pix) != string(want.Pix) {
					t.Errorf("feed %d, tick %d (flash=%v): frame differs from the reference", k, i, IsFlashFrame(p, period, i))
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := range seen {
		if len(seen[k]) != 2 {
			t.Errorf("feed %d returned %d distinct frames over three periods, want 2", k, len(seen[k]))
		}
		if !reflect.DeepEqual(seen[k], seen[0]) {
			t.Errorf("feed %d returned other frames than feed 0; feeds of one geometry share theirs", k)
		}
	}
}

// TestFlashNextAllocFree: once the first Next has built the feed's two
// frames, every later tick allocates nothing.
func TestFlashNextAllocFree(t *testing.T) {
	src := NewFlash(QuickProfile, 2)
	src.Next()
	if avg := testing.AllocsPerRun(100, func() { src.Next() }); avg != 0 {
		t.Errorf("flash Next allocates %.2f objects/op after the first call, want 0", avg)
	}
}

// TestPooledSourceBackgroundsAreRecycled runs both motion feeds on a
// pool that parks one dirty buffer of their background's size, the
// high-motion one across three scene cuts, and checks that every frame
// equals the unpooled feed's, that the background is built on that
// buffer and every scene's world on the last one's storage, and that
// Release parks the background while leaving the frames intact.
func TestPooledSourceBackgroundsAreRecycled(t *testing.T) {
	p := QuickProfile
	cuts := 3
	n := cuts*4*p.FPS + 5 // highMotionSource cuts every 4 s
	for class, bgPix := range map[MotionClass]int{LowMotion: p.W * p.H, HighMotion: 3 * p.W * p.H} {
		want := Record(NewSource(class, p, 9), n)
		pool := NewFramePool()
		dirty := pool.Get(bgPix, 1)
		for j := range dirty.Pix {
			dirty.Pix[j] = 0xA5
		}
		first := &dirty.Pix[0]
		pool.Put(dirty)
		src := NewSourceOn(class, p, rand.New(rand.NewSource(9)), pool)
		var last *Frame
		for i := range want {
			if last != nil {
				pool.Put(last)
			}
			last = src.Next()
			if !bytes.Equal(last.Pix, want[i].Pix) {
				t.Fatalf("%v frame %d: pooled pixels differ from unpooled", class, i)
			}
			var bg *Frame
			switch s := src.(type) {
			case *lowMotionSource:
				bg = s.bg
			case *highMotionSource:
				bg = s.world
			}
			if &bg.Pix[0] != first {
				t.Fatalf("%v frame %d: the background left the dirty storage it was built on", class, i)
			}
		}
		before := pool.Parked()[bgPix]
		Release(src)
		Release(src)
		if got := pool.Parked()[bgPix]; got != before+1 {
			t.Errorf("%v: Release parked %d %d-pixel buffers, want 1", class, got-before, bgPix)
		}
		if !bytes.Equal(last.Pix, want[n-1].Pix) {
			t.Errorf("%v: Release changed the last frame's pixels", class)
		}
	}
}
