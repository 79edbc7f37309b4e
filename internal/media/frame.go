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

// FramePool recycles frame buffers by exact pixel count, for transient
// frames whose lifetime the caller fully controls (codec resize-ladder
// intermediates, for example). It is deliberately not a sync.Pool: a
// FramePool has one owner on one goroutine at a time, so reuse order is
// deterministic. Buffers come back dirty — Get's caller must overwrite
// every pixel before reading any.
//
// Frames that escape into long-lived structures (encoder reconstructions,
// recordings, source frames, anything a QoE scorer may see) must NOT
// come from a pool: downstream caches key on frame identity, which reuse
// would corrupt. A source may return the same immutable frame twice
// (see Source); that is one frame seen twice, not a recycled buffer.
type FramePool struct {
	free map[int][]*Frame
}

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{free: make(map[int][]*Frame)} }

// Get returns a w×h frame with undefined pixel contents.
func (p *FramePool) Get(w, h int) *Frame {
	n := w * h
	if bucket := p.free[n]; len(bucket) > 0 {
		f := bucket[len(bucket)-1]
		p.free[n] = bucket[:len(bucket)-1]
		f.W, f.H = w, h
		return f
	}
	if w <= 0 || h <= 0 {
		panic("media: non-positive frame dimensions")
	}
	return &Frame{W: w, H: h, Pix: make([]uint8, n)}
}

// Put returns a frame to the pool. The caller must not touch it again.
func (p *FramePool) Put(f *Frame) {
	if f == nil || len(f.Pix) == 0 {
		return
	}
	p.free[len(f.Pix)] = append(p.free[len(f.Pix)], f)
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

// Crop returns a copy of the rectangle [x0,x0+w) x [y0,y0+h).
func (f *Frame) Crop(x0, y0, w, h int) *Frame {
	if x0 < 0 || y0 < 0 || x0+w > f.W || y0+h > f.H {
		panic("media: crop out of bounds")
	}
	g := NewFrame(w, h)
	for y := 0; y < h; y++ {
		copy(g.Pix[y*w:(y+1)*w], f.Pix[(y0+y)*f.W+x0:(y0+y)*f.W+x0+w])
	}
	return g
}

// Resize scales the frame to w×h with bilinear interpolation (the
// recording post-processing step that maps the captured viewport back to
// the injected resolution).
func (f *Frame) Resize(w, h int) *Frame {
	if w == f.W && h == f.H {
		return f.Clone()
	}
	return f.resizeTo(NewFrame(w, h))
}

// ResizePooled is Resize into a buffer from p; the result must go back
// via p.Put once consumed. The interpolation is identical to Resize.
func (f *Frame) ResizePooled(p *FramePool, w, h int) *Frame {
	if w == f.W && h == f.H {
		g := p.Get(w, h)
		copy(g.Pix, f.Pix)
		return g
	}
	return f.resizeTo(p.Get(w, h))
}

// resizeTo writes the bilinear rescale of f into g (every pixel).
func (f *Frame) resizeTo(g *Frame) *Frame {
	w, h := g.W, g.H
	xr := float64(f.W-1) / float64(maxInt(w-1, 1))
	yr := float64(f.H-1) / float64(maxInt(h-1, 1))
	for y := 0; y < h; y++ {
		sy := float64(y) * yr
		y0 := int(sy)
		fy := sy - float64(y0)
		y1 := y0 + 1
		if y1 >= f.H {
			y1 = f.H - 1
		}
		for x := 0; x < w; x++ {
			sx := float64(x) * xr
			x0 := int(sx)
			fx := sx - float64(x0)
			x1 := x0 + 1
			if x1 >= f.W {
				x1 = f.W - 1
			}
			v := (1-fx)*(1-fy)*float64(f.At(x0, y0)) +
				fx*(1-fy)*float64(f.At(x1, y0)) +
				(1-fx)*fy*float64(f.At(x0, y1)) +
				fx*fy*float64(f.At(x1, y1))
			g.Set(x, y, uint8(math.Round(v)))
		}
	}
	return g
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
