package media

import (
	"math"
	"math/rand"
	"sync"
)

// Source produces a deterministic stream of frames at a fixed rate.
type Source interface {
	// Next returns the next frame. A returned frame is immutable: no
	// one writes to it again, and a source may return the same frame
	// more than once (the flash feed returns two frames in turn). A
	// motion source built on a pool (NewSourceOn) returns a new frame
	// on the pool's storage every time; its caller owns that storage
	// and may hand it back with Put once nothing reads the frame.
	Next() *Frame
	// Dims returns the frame geometry.
	Dims() (w, h int)
	// FPS returns the nominal frame rate.
	FPS() int
}

// Profile selects the content geometry/rate. The paper used 640x480@30;
// the quick profile keeps experiment suites fast while preserving every
// relative result (metrics are resolution-normalized).
type Profile struct {
	W, H int
	FPS  int
}

var (
	// PaperProfile is the 640x480 30 fps feed of §4.3.
	PaperProfile = Profile{W: 640, H: 480, FPS: 30}
	// QuickProfile is the reduced-cost default for tests and quick runs.
	QuickProfile = Profile{W: 160, H: 120, FPS: 10}
)

// MotionClass labels the two content classes of §4.3.
type MotionClass int

const (
	LowMotion  MotionClass = iota // single person, stationary background
	HighMotion                    // tour-guide feed: pans and scene cuts
)

func (m MotionClass) String() string {
	if m == LowMotion {
		return "low-motion"
	}
	return "high-motion"
}

// lowMotionSource renders a stationary "room" with a gently bobbing
// head-and-shoulders blob and occasional hand gestures: mostly static
// background, small localized motion — highly compressible.
type lowMotionSource struct {
	p    Profile
	t    int
	rng  *rand.Rand
	bg   *Frame
	pool *FramePool // storage of bg and of the frames Next returns; nil allocates
}

func newLowMotion(p Profile, rng *rand.Rand, pool *FramePool) Source {
	s := &lowMotionSource{p: p, rng: rng, pool: pool}
	s.bg = pool.Get(p.W, p.H)
	textured(s.bg, 96, 40, s.rng, nil) // mid-gray room with texture
	return s
}

func (s *lowMotionSource) release() {
	if s.bg != nil && s.pool != nil {
		s.pool.Put(s.bg)
		s.bg = nil
	}
}

func (s *lowMotionSource) Dims() (int, int) { return s.p.W, s.p.H }
func (s *lowMotionSource) FPS() int         { return s.p.FPS }

func (s *lowMotionSource) Next() *Frame {
	w, h := s.p.W, s.p.H
	f := s.pool.Get(w, h)
	copy(f.Pix, s.bg.Pix)
	tSec := float64(s.t) / float64(s.p.FPS)
	// Head: ellipse around center, bobbing a little (~1% of height).
	cx := float64(float64(w) / 2)
	cy := float64(float64(h)*0.45) + float64(math.Sin(tSec*2*math.Pi*0.5)*float64(h)*0.01)
	rx, ry := float64(w)*0.12, float64(h)*0.2
	drawEllipse(f, cx, cy, rx, ry, 190)
	// Shoulders.
	drawEllipse(f, cx, float64(h)*0.95, float64(w)*0.3, float64(h)*0.25, 150)
	// Mouth region flickers while "talking" (tiny area).
	mouth := uint8(120 + float64(60*math.Sin(tSec*2*math.Pi*3)))
	drawEllipse(f, cx, cy+float64(ry*0.45), rx*0.3, ry*0.1, mouth)
	// Occasional hand gesture: a bright blob sweeping for ~1s every ~7s.
	phase := math.Mod(tSec, 7)
	if phase < 1 {
		gx := cx + float64((phase-0.5)*float64(w)*0.3)
		drawEllipse(f, gx, float64(h)*0.8, float64(w)*0.05, float64(h)*0.06, 210)
	}
	// Sensor noise.
	addNoise(f, s.rng, 1.2)
	s.t++
	return f
}

// highMotionSource renders an outdoor pan: a textured world scrolling at
// a brisk rate, with a hard scene cut every few seconds — poorly
// compressible, large frame-to-frame differences.
type highMotionSource struct {
	p        Profile
	t        int
	rng      *rand.Rand
	world    *Frame // wide panorama we pan across
	scene    int
	cutEvery int        // frames between scene cuts
	pool     *FramePool // storage of world and of the frames Next returns; nil allocates
	sx       []float64  // textured's column scratch, one world row wide
}

func newHighMotion(p Profile, rng *rand.Rand, pool *FramePool) Source {
	s := &highMotionSource{
		p:        p,
		rng:      rng,
		cutEvery: p.FPS * 4,
		pool:     pool,
	}
	s.newScene()
	return s
}

func (s *highMotionSource) Dims() (int, int) { return s.p.W, s.p.H }
func (s *highMotionSource) FPS() int         { return s.p.FPS }

// newScene builds the next world on the storage of the last one, which
// no frame aliases: Next copies out of the world.
func (s *highMotionSource) newScene() {
	base := uint8(60 + s.rng.Intn(120))
	if s.world != nil {
		s.pool.Put(s.world)
	}
	s.world = s.pool.Get(s.p.W*3, s.p.H)
	s.sx = textured(s.world, base, 70, s.rng, s.sx)
	s.scene++
}

func (s *highMotionSource) release() {
	if s.world != nil && s.pool != nil {
		s.pool.Put(s.world)
		s.world = nil
	}
}

func (s *highMotionSource) Next() *Frame {
	if s.t > 0 && s.t%s.cutEvery == 0 {
		s.newScene()
	}
	w, h := s.p.W, s.p.H
	// Pan speed: cross the extra world width over one scene.
	span := s.world.W - w
	within := s.t % s.cutEvery
	off := within * span / s.cutEvery
	f := s.pool.Get(w, h)
	s.world.cropInto(f, off, 0)
	// A foreground "guide" walking: high-contrast blob moving against pan.
	tSec := float64(s.t) / float64(s.p.FPS)
	gx := float64(w) * (0.2 + float64(0.6*math.Abs(math.Sin(tSec*0.7))))
	drawEllipse(f, gx, float64(h)*0.7, float64(w)*0.06, float64(h)*0.18, 230)
	addNoise(f, s.rng, 2.0)
	s.t++
	return f
}

// FlashFrames is the number of consecutive bright frames each flash
// burst carries. It is the single source of truth shared by the feed
// (flashSource) and the oracle (IsFlashFrame), so the two cannot drift.
const FlashFrames = 2

// flashSource is the lag-probe feed: blank frames with a bright image for
// FlashFrames frames once per period (paper: two-second periodicity).
// The feed has only two distinct images, a pure function of the
// geometry, and nothing writes to a source frame, so every feed of one
// geometry shares one read-only pair (flashImages), fetched on the
// first Next, and returns one of the two on every tick.
type flashSource struct {
	p            Profile
	t            int
	periodFr     int
	blank, flash *Frame
}

// flashPairs holds the flash feed's blank and checkerboard images per
// geometry ([2]int{W, H} → *[2]*Frame), built once for the process.
var flashPairs sync.Map

// flashImages returns the flash feed's blank and checkerboard images of
// w×h. Two sources that race to build one geometry both build it, and
// both keep the pair stored first.
func flashImages(w, h int) (blank, flash *Frame) {
	key := [2]int{w, h}
	v, ok := flashPairs.Load(key)
	if !ok {
		// A high-detail flash image: checkerboard (incompressible burst).
		board := NewFrame(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if (x/4+y/4)%2 == 0 {
					board.Set(x, y, 235)
				}
			}
		}
		v, _ = flashPairs.LoadOrStore(key, &[2]*Frame{NewFrame(w, h), board})
	}
	pair := v.(*[2]*Frame)
	return pair[0], pair[1]
}

// NewFlash creates the Fig-2 feed. period is in seconds of content time.
func NewFlash(p Profile, periodSec float64) Source {
	return &flashSource{p: p, periodFr: flashPeriodFrames(p, periodSec)}
}

// flashPeriodFrames converts a flash period to frames, clamped so a
// period never underruns the flash burst itself.
func flashPeriodFrames(p Profile, periodSec float64) int {
	pf := int(periodSec * float64(p.FPS))
	if pf < FlashFrames {
		pf = FlashFrames
	}
	return pf
}

func (s *flashSource) Dims() (int, int) { return s.p.W, s.p.H }
func (s *flashSource) FPS() int         { return s.p.FPS }

func (s *flashSource) Next() *Frame {
	if s.blank == nil {
		s.blank, s.flash = flashImages(s.p.W, s.p.H)
	}
	f := s.blank
	if s.t%s.periodFr < FlashFrames {
		f = s.flash
	}
	s.t++
	return f
}

// IsFlashFrame reports whether the i-th frame of a NewFlash feed with the
// given parameters carries the flash image.
func IsFlashFrame(p Profile, periodSec float64, i int) bool {
	return i%flashPeriodFrames(p, periodSec) < FlashFrames
}

// NewSource builds a source for a motion class.
func NewSource(class MotionClass, p Profile, seed int64) Source {
	return NewSourceOn(class, p, rand.New(rand.NewSource(seed)), nil)
}

// NewSourceOn is NewSource with its randomness drawn from rng, which
// the source owns from then on, and every frame Next returns drawn from
// pool; nil allocates each one. A generator in the state
// rand.NewSource(seed) starts in, on either storage, makes the frames
// NewSource makes for seed.
func NewSourceOn(class MotionClass, p Profile, rng *rand.Rand, pool *FramePool) Source {
	if class == LowMotion {
		return newLowMotion(p, rng, pool)
	}
	return newHighMotion(p, rng, pool)
}

// Release hands the storage a motion source built on a pool
// (NewSourceOn) keeps for itself, its background or the world it pans
// across, back to that pool and sets the frame's Pix to nil. The
// source must not make another frame. Every frame it made copies from
// that storage and never aliases it, so those frames stay intact.
// Release of any other source, of one on nil storage, or a second time
// does nothing.
func Release(src Source) {
	if r, ok := src.(interface{ release() }); ok {
		r.release()
	}
}

// Record captures n frames from a source into a slice (test/QoE helper).
func Record(src Source, n int) []*Frame {
	out := make([]*Frame, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

// textured writes every pixel of f with smooth low-frequency texture:
// base luma with sinusoidal variation plus seeded speckle, clamped to
// [0,255]. The column sines depend on x alone, so they are computed
// once per call into sx, which grows to f.W and is returned for reuse.
func textured(f *Frame, base uint8, amp float64, rng *rand.Rand, sx []float64) []float64 {
	w, h := f.W, f.H
	phix := float64(float64(rng.Float64()) * 2 * math.Pi)
	phiy := float64(float64(rng.Float64()) * 2 * math.Pi)
	fx := 2 + float64(rng.Float64()*4)
	fy := 2 + float64(rng.Float64()*4)
	if cap(sx) < w {
		sx = make([]float64, w)
	}
	sx = sx[:w]
	for x := range sx {
		sx[x] = math.Sin(float64(float64(float64(x)/float64(w)*fx)*2*math.Pi) + phix)
	}
	for y := 0; y < h; y++ {
		sy := math.Sin(float64(float64(float64(y)/float64(h)*fy)*2*math.Pi) + phiy)
		row := f.Pix[y*w : (y+1)*w]
		for x := range row {
			v := float64(base) + float64(amp*0.5*(sx[x]+sy))
			row[x] = clamp8(v)
		}
	}
	return sx
}

func drawEllipse(f *Frame, cx, cy, rx, ry float64, v uint8) {
	x0 := int(math.Max(0, cx-rx))
	x1 := int(math.Min(float64(f.W-1), cx+rx))
	y0 := int(math.Max(0, cy-ry))
	y1 := int(math.Min(float64(f.H-1), cy+ry))
	for y := y0; y <= y1; y++ {
		dy := (float64(y) - cy) / ry
		for x := x0; x <= x1; x++ {
			dx := (float64(x) - cx) / rx
			if float64(dx*dx)+float64(dy*dy) <= 1 {
				f.Set(x, y, v)
			}
		}
	}
}

func addNoise(f *Frame, rng *rand.Rand, std float64) {
	for i := range f.Pix {
		v := float64(f.Pix[i]) + float64(rng.NormFloat64()*std)
		f.Pix[i] = clamp8(v)
	}
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
