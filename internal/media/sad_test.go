package media

import (
	"math/rand"
	"testing"
)

// refMeanAbsDiff and refSpatialDetail are scalar copies of the
// pixel-at-a-time loops the SAD kernels replaced: the oracle the
// kernels must match exactly.
func refMeanAbsDiff(a, b *Frame) float64 {
	var sum int64
	for i := range a.Pix {
		d := int64(a.Pix[i]) - int64(b.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(len(a.Pix))
}

func refSpatialDetail(f *Frame) float64 {
	var sum, n int64
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			v := int64(f.At(x, y))
			if x+1 < f.W {
				d := v - int64(f.At(x+1, y))
				if d < 0 {
					d = -d
				}
				sum += d
				n++
			}
			if y+1 < f.H {
				d := v - int64(f.At(x, y+1))
				if d < 0 {
					d = -d
				}
				sum += d
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func refSAD(a, b []uint8) uint64 {
	var sum uint64
	for i := range a {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		sum += uint64(d)
	}
	return sum
}

func randomFrame(rng *rand.Rand, w, h int) *Frame {
	f := NewFrame(w, h)
	rng.Read(f.Pix)
	return f
}

func filledFrame(w, h int, v uint8) *Frame {
	f := NewFrame(w, h)
	for i := range f.Pix {
		f.Pix[i] = v
	}
	return f
}

func checkFramePair(t *testing.T, what string, a, b *Frame) {
	t.Helper()
	if got, want := MeanAbsDiff(a, b), refMeanAbsDiff(a, b); got != want {
		t.Fatalf("%s %dx%d: MeanAbsDiff = %v, scalar reference %v", what, a.W, a.H, got, want)
	}
	for _, f := range []*Frame{a, b} {
		if got, want := f.SpatialDetail(), refSpatialDetail(f); got != want {
			t.Fatalf("%s %dx%d: SpatialDetail = %v, scalar reference %v", what, f.W, f.H, got, want)
		}
	}
}

// TestSADKernelsExact pins MeanAbsDiff and SpatialDetail to the scalar
// loops they replaced, bit for bit, on whichever kernel sad dispatches
// to: random frames at every width 1-67 (1×N and N×1 included),
// maximal-difference planes, and the kernel alone on unaligned
// sub-slices of every length that is not a multiple of the block size.
func TestSADKernelsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for w := 1; w <= 67; w++ {
		for _, h := range []int{1, 2, 3, 7, 16, 33} {
			checkFramePair(t, "random", randomFrame(rng, w, h), randomFrame(rng, w, h))
			checkFramePair(t, "random", randomFrame(rng, h, w), randomFrame(rng, h, w))
		}
	}
	// All-0 against all-255: every 8-byte PSADBW lane sums to 8*255, the
	// most it can hold. A 0/255 checkerboard maximises every gradient.
	for _, d := range [][2]int{{1, 1}, {15, 1}, {16, 2}, {33, 3}, {640, 480}} {
		w, h := d[0], d[1]
		zero, full := filledFrame(w, h, 0), filledFrame(w, h, 255)
		checkFramePair(t, "0 vs 255", zero, full)
		if got := MeanAbsDiff(zero, full); got != 255 {
			t.Fatalf("%dx%d: MeanAbsDiff(0, 255) = %v, want 255", w, h, got)
		}
		checker := NewFrame(w, h)
		for i := range checker.Pix {
			if (i%w+i/w)%2 == 1 {
				checker.Pix[i] = 255
			}
		}
		checkFramePair(t, "checkerboard", checker, full)
	}
	buf := make([]uint8, 256)
	other := make([]uint8, 256)
	rng.Read(buf)
	rng.Read(other)
	for offA := 0; offA < 16; offA++ {
		for offB := 0; offB < 16; offB += 5 {
			for n := 0; n <= 100; n++ {
				a, b := buf[offA:offA+n], other[offB:offB+n+3]
				if got, want := sad(a, b), refSAD(a, b); got != want {
					t.Fatalf("sad(len %d at +%d, +%d) = %d, want %d", n, offA, offB, got, want)
				}
			}
		}
	}
}
