//go:build amd64

package media

// useSSE2 selects the assembly kernel. SSE2 is part of the amd64
// baseline, so it is always on; tests clear it to run the portable
// kernel (sad_generic.go) on amd64 too.
var useSSE2 = true

// sad returns the sum of |a[i]-b[i]| over i < len(a). len(b) must be
// >= len(a). The SSE2 kernel sums with PSADBW; integer sums are exact
// in any order, so it equals sadGeneric on every input.
func sad(a, b []uint8) uint64 {
	if useSSE2 {
		return sadSSE2(a, b[:len(a)])
	}
	return sadGeneric(a, b)
}

//go:noescape
func sadSSE2(a, b []uint8) uint64
