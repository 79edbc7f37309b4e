package qoe

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// gaussianKernel returns a normalized 1-D Gaussian of the given length:
// the definition the pinned ssimKernel and vifKernels tables were
// generated from.
func gaussianKernel(n int, sigma float64) []float64 {
	k := make([]float64, n)
	mid := float64(n-1) / 2
	var sum float64
	for i := range k {
		d := float64(i) - mid
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// TestPinnedKernelsMatchDefinition checks every pinned tap against
// gaussianKernel: bit for bit on amd64, whose bits the tables hold, and
// within one ULP elsewhere, where math.Exp may round differently (386's
// pure-Go Exp does, on two SSIM taps).
func TestPinnedKernelsMatchDefinition(t *testing.T) {
	type kernel struct {
		name        string
		table, want []float64
	}
	cases := []kernel{{"ssim", ssimKernel, gaussianKernel(ssimWindow, ssimSigma)}}
	for s, table := range vifKernels {
		n := 1<<(4-s) + 1 // 17, 9, 5, 3
		cases = append(cases, kernel{fmt.Sprintf("vif scale %d", s+1), table, gaussianKernel(n, float64(n)/5)})
	}
	exact := runtime.GOARCH == "amd64"
	for _, c := range cases {
		if len(c.table) != len(c.want) {
			t.Errorf("%s: %d taps pinned, want %d", c.name, len(c.table), len(c.want))
			continue
		}
		for i, v := range c.table {
			got, want := math.Float64bits(v), math.Float64bits(c.want[i])
			d := int64(got - want)
			if d < 0 {
				d = -d
			}
			if (exact && d != 0) || d > 1 {
				t.Errorf("%s tap %d: pinned %#016x, gaussianKernel gives %#016x on %s",
					c.name, i, got, want, runtime.GOARCH)
			}
		}
	}
}
