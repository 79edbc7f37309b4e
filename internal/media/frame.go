// Package media generates the deterministic audiovisual content the paper
// injected through loopback devices: a low-motion "talking head" feed, a
// high-motion "tour guide" feed, the periodic-flash feed used for lag
// measurement (Fig 2), and speech-like PCM audio.
//
// Frames are single-plane 8-bit luma images: every QoE metric the paper
// uses (PSNR, SSIM, VIFp) is computed on luma, so carrying chroma would
// only add cost without changing any result.
package media

import (
	"fmt"
	"math"
)

// Frame is an 8-bit luma image.
type Frame struct {
	W, H int
	Pix  []uint8 // row-major, len == W*H
}

// NewFrame allocates a zeroed (black) frame.
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic("media: non-positive frame dimensions")
	}
	return &Frame{W: w, H: h, Pix: make([]uint8, w*h)}
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	g := NewFrame(f.W, f.H)
	copy(g.Pix, f.Pix)
	return g
}

// FramePool recycles frame pixel storage by exact pixel count. It is
// deliberately not a sync.Pool: a FramePool has one owner on one
// goroutine at a time, so reuse order is deterministic. Storage comes
// back dirty — whoever takes it must overwrite every pixel before
// reading any.
//
// The pool recycles storage, never frames: every Get wraps its storage
// in a new *Frame, and Put sets the returned frame's Pix to nil. So an
// identity-keyed cache (the QoE scorer's, an encoder's previous source)
// never sees one *Frame with two contents, and a frame read after its
// storage went back panics instead of showing another frame's pixels.
// Put takes back only storage this pool handed out and has not taken
// back since. A QoE session's source frames and reconstructions come
// from its scheduler worker's pool and return at session end (see
// client.Config.Kit); an encoder's resize-ladder transients return
// as soon as they are consumed. A source may return the same immutable
// frame twice (see Source); that is one frame seen twice, not recycled
// storage.
//
// A nil *FramePool does not pool: Get and Alloc allocate zeroed
// storage, and Put does nothing.
type FramePool struct {
	free map[int][][]uint8
	out  map[*uint8]struct{} // storage handed out and not taken back
}

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool {
	return &FramePool{free: make(map[int][][]uint8), out: make(map[*uint8]struct{})}
}

// Get returns a new w×h frame on storage from p, with undefined pixel
// contents.
func (p *FramePool) Get(w, h int) *Frame {
	f := &Frame{W: w, H: h}
	p.Alloc(f)
	return f
}

// Alloc gives f, a frame with nil Pix, W×H storage from p with
// undefined contents.
func (p *FramePool) Alloc(f *Frame) {
	if f.W <= 0 || f.H <= 0 {
		panic("media: non-positive frame dimensions")
	}
	if f.Pix != nil {
		panic("media: Alloc of a frame that has pixels")
	}
	n := f.W * f.H
	if p == nil {
		f.Pix = make([]uint8, n)
		return
	}
	if bucket := p.free[n]; len(bucket) > 0 {
		f.Pix = bucket[len(bucket)-1]
		p.free[n] = bucket[:len(bucket)-1]
	} else {
		f.Pix = make([]uint8, n)
	}
	p.out[&f.Pix[0]] = struct{}{}
}

// Put returns f's storage to p and sets f.Pix to nil, so a later read
// of f's pixels panics. It panics unless p handed that storage out and
// has not taken it back since: a frame returned twice, one never built,
// or one whose pixels came from elsewhere.
func (p *FramePool) Put(f *Frame) {
	if p == nil {
		return
	}
	if len(f.Pix) == 0 {
		panic("media: Put of a frame without pixels (returned already, or never built)")
	}
	key := &f.Pix[0]
	if _, ok := p.out[key]; !ok {
		panic("media: Put of storage the pool did not hand out")
	}
	delete(p.out, key)
	n := len(f.Pix)
	p.free[n] = append(p.free[n], f.Pix)
	f.Pix = nil
}

// Parked reports the storage p holds for reuse: the number of buffers
// parked per pixel count.
func (p *FramePool) Parked() map[int]int {
	m := make(map[int]int, len(p.free))
	for n, bucket := range p.free {
		if len(bucket) > 0 {
			m[n] = len(bucket)
		}
	}
	return m
}

// At returns the pixel at (x, y).
func (f *Frame) At(x, y int) uint8 { return f.Pix[y*f.W+x] }

// Set writes the pixel at (x, y).
func (f *Frame) Set(x, y int, v uint8) { f.Pix[y*f.W+x] = v }

// MeanAbsDiff returns the mean absolute pixel difference between two
// frames of identical geometry — the simulator's motion/complexity
// measure. It panics on geometry mismatch. A frame against itself is 0
// without a pass over its pixels, as a source repeating a frame gives.
func MeanAbsDiff(a, b *Frame) float64 {
	if a.W != b.W || a.H != b.H {
		panic(fmt.Sprintf("media: frame geometry mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	if a == b {
		return 0
	}
	return float64(sad(a.Pix, b.Pix)) / float64(len(a.Pix))
}

// SpatialDetail returns the mean absolute horizontal+vertical gradient —
// a cheap proxy for intra-frame coding complexity. The horizontal terms
// are each row against itself shifted by one pixel; the vertical terms
// are the plane against itself shifted by one row.
func (f *Frame) SpatialDetail() float64 {
	w, h := f.W, f.H
	n := h*(w-1) + (h-1)*w
	if w <= 0 || h <= 0 || n == 0 {
		return 0
	}
	var sum uint64
	for y := 0; y < h; y++ {
		row := f.Pix[y*w : (y+1)*w]
		sum += sad(row[:w-1], row[1:])
	}
	sum += sad(f.Pix[:(h-1)*w], f.Pix[w:])
	return float64(sum) / float64(n)
}

// cropInto writes the copy of the g.W×g.H rectangle of f at (x0, y0)
// into every pixel of g.
func (f *Frame) cropInto(g *Frame, x0, y0 int) {
	w, h := g.W, g.H
	if x0 < 0 || y0 < 0 || x0+w > f.W || y0+h > f.H {
		panic("media: crop out of bounds")
	}
	for y := 0; y < h; y++ {
		copy(g.Pix[y*w:(y+1)*w], f.Pix[(y0+y)*f.W+x0:(y0+y)*f.W+x0+w])
	}
}

// Resize scales the frame to w×h with bilinear interpolation (the
// recording post-processing step that maps the captured viewport back to
// the injected resolution).
func (f *Frame) Resize(w, h int) *Frame {
	if w == f.W && h == f.H {
		return f.Clone()
	}
	g := NewFrame(w, h)
	f.ResizeInto(g)
	return g
}

// ResizeInto writes the bilinear rescale of f to g's geometry into
// every pixel of g. The interpolation is Resize's.
func (f *Frame) ResizeInto(g *Frame) {
	w, h := g.W, g.H
	xr := float64(f.W-1) / float64(maxInt(w-1, 1))
	yr := float64(f.H-1) / float64(maxInt(h-1, 1))
	for y := 0; y < h; y++ {
		sy := float64(float64(y) * yr)
		y0 := int(sy)
		fy := sy - float64(y0)
		y1 := y0 + 1
		if y1 >= f.H {
			y1 = f.H - 1
		}
		for x := 0; x < w; x++ {
			sx := float64(float64(x) * xr)
			x0 := int(sx)
			fx := sx - float64(x0)
			x1 := x0 + 1
			if x1 >= f.W {
				x1 = f.W - 1
			}
			v := float64((1-fx)*(1-fy)*float64(f.At(x0, y0))) +
				float64(fx*(1-fy)*float64(f.At(x1, y0))) +
				float64((1-fx)*fy*float64(f.At(x0, y1))) +
				float64(fx*fy*float64(f.At(x1, y1)))
			g.Set(x, y, uint8(math.Round(v)))
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
