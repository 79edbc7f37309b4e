package qoe

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/vcabench/vcabench/internal/media"
)

// sessionFixture builds one session whose receivers exercise every
// frame-identity pattern the scorer's caches and retirement key on:
//
//   - receivers 0 and 1 show the same decoded pointers (one decoder
//     output shared across receivers);
//   - receiver 1 shows nothing for its first slots, then freezes on one
//     frame for a run of slots;
//   - receiver 2 shows the reference itself at some slots, and a later
//     slot's reference at others (shown frames that are also reference
//     frames), lags one slot behind the shared decoded pointers
//     elsewhere, and has a nil slot mid-session;
//   - every fourth reference slot repeats the previous slot's pointer.
//
// Pixels depend on seed; the identity pattern does not.
func sessionFixture(seed int64, slots int) (ref []*media.Frame, displayed [][]*media.Frame) {
	src := media.NewSource(media.HighMotion, media.QuickProfile, seed)
	for i := 0; i < slots; i++ {
		f := src.Next()
		if i%4 == 3 {
			f = ref[i-1]
		}
		ref = append(ref, f)
	}
	decoded := make([]*media.Frame, slots)
	for i := range decoded {
		decoded[i] = noisy(ref[i], 6, seed*1000+int64(i))
	}
	r0 := append([]*media.Frame(nil), decoded...)
	r1 := make([]*media.Frame, slots)
	r2 := make([]*media.Frame, slots)
	for i := 0; i < slots; i++ {
		switch {
		case i < 2:
		case i >= 5 && i <= 8:
			r1[i] = decoded[4]
		default:
			r1[i] = decoded[i]
		}
		switch {
		case i%3 == 0:
			r2[i] = ref[i]
		case i%5 == 1 && i+1 < slots:
			r2[i] = ref[i+1]
		case i == 7:
		default:
			r2[i] = decoded[i-1]
		}
	}
	return ref, [][]*media.Frame{r0, r1, r2}
}

// compareUncached is the cache-free reference for one receiver: the
// package-level metrics on every sampled pair, summed in slot order.
func compareUncached(ref, displayed []*media.Frame, stride int) VideoResult {
	var res VideoResult
	freezes := 0
	var prev *media.Frame
	for i := range ref {
		shown := displayed[i]
		if shown == prev || shown == nil {
			freezes++
		}
		prev = shown
		if i%stride != 0 {
			continue
		}
		if shown == nil {
			shown = media.NewFrame(ref[i].W, ref[i].H)
		}
		res.PSNR += PSNR(ref[i], shown)
		res.SSIM += SSIM(ref[i], shown)
		res.VIFP += VIFP(ref[i], shown)
		res.Frames++
	}
	if res.Frames > 0 {
		res.PSNR /= float64(res.Frames)
		res.SSIM /= float64(res.Frames)
		res.VIFP /= float64(res.Frames)
	}
	res.FreezeRatio = float64(freezes) / float64(len(ref))
	return res
}

func sameBits(a, b VideoResult) bool {
	return a.Frames == b.Frames &&
		math.Float64bits(a.PSNR) == math.Float64bits(b.PSNR) &&
		math.Float64bits(a.SSIM) == math.Float64bits(b.SSIM) &&
		math.Float64bits(a.VIFP) == math.Float64bits(b.VIFP) &&
		math.Float64bits(a.FreezeRatio) == math.Float64bits(b.FreezeRatio)
}

// TestCompareSessionBitIdentical scores one session at strides 1-5 with
// three, one and zero receivers on a single reused scorer (so pooled
// buffers come back dirty) and demands exact bit equality with the
// cache-free reference for every receiver.
func TestCompareSessionBitIdentical(t *testing.T) {
	ref, displayed := sessionFixture(3, 13)
	sc := NewScorer()
	for stride := 1; stride <= 5; stride++ {
		want := make([]VideoResult, len(displayed))
		for r := range displayed {
			want[r] = compareUncached(ref, displayed[r], stride)
		}
		for _, recv := range [][][]*media.Frame{displayed, displayed[:1], nil} {
			got := sc.CompareSession(ref, recv, stride)
			if len(got) != len(recv) {
				t.Fatalf("stride %d, %d receivers: %d results", stride, len(recv), len(got))
			}
			for r := range got {
				if !sameBits(got[r], want[r]) {
					t.Errorf("stride %d, %d receivers, receiver %d:\n got %+v\nwant %+v",
						stride, len(recv), r, got[r], want[r])
				}
			}
		}
		if got := sc.CompareVideo(ref, displayed[2], stride); !sameBits(got, want[2]) {
			t.Errorf("stride %d CompareVideo:\n got %+v\nwant %+v", stride, got, want[2])
		}
	}
}

// pooledBuffers counts the float-image buffers parked in the pool.
func pooledBuffers(p *fimgPool) int {
	n := 0
	for _, bucket := range p.free {
		n += len(bucket)
	}
	return n
}

// TestCompareSessionRecyclesPool pins the working-set contract: a
// finished session leaves no per-image stats behind and every buffer it
// took back in the pool, so a second session of the same geometry and
// identity pattern is served entirely from those buffers.
func TestCompareSessionRecyclesPool(t *testing.T) {
	sc := NewScorer()
	ref, displayed := sessionFixture(3, 13)
	sc.CompareSession(ref, displayed, 1)
	if len(sc.stats) != 0 {
		t.Fatalf("scorer holds stats for %d frames after the session", len(sc.stats))
	}
	first := pooledBuffers(sc.pool)
	if first == 0 {
		t.Fatal("no buffers returned to the pool")
	}
	ref, displayed = sessionFixture(4, 13)
	sc.CompareSession(ref, displayed, 1)
	if len(sc.stats) != 0 {
		t.Fatalf("scorer holds stats for %d frames after the second session", len(sc.stats))
	}
	if n := pooledBuffers(sc.pool); n != first {
		t.Errorf("second session allocated %d new float buffers; want every one from the pool", n-first)
	}
}

// TestCompareSessionPanicsOnUnbuiltFrame scores a frame without pixels,
// as a decoder handle whose reconstruction was never built has. The
// scorer must refuse it, on either side of a pair, instead of reading a
// short image.
func TestCompareSessionPanicsOnUnbuiltFrame(t *testing.T) {
	ref := media.NewHighMotion(media.QuickProfile, 3).Next()
	for _, c := range []struct {
		name string
		pix  []uint8
	}{
		{"nil", nil},
		{"short", make([]uint8, len(ref.Pix)/2)},
	} {
		unbuilt := &media.Frame{W: ref.W, H: ref.H, Pix: c.pix}
		for _, pair := range [][2]*media.Frame{{ref, unbuilt}, {unbuilt, ref}} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				NewScorer().CompareSession([]*media.Frame{pair[0]}, [][]*media.Frame{{pair[1]}}, 1)
				return ""
			}()
			if !strings.Contains(msg, "never built") {
				t.Errorf("%s pixels: CompareSession panic = %q, want one naming an unbuilt frame", c.name, msg)
			}
		}
	}
}
