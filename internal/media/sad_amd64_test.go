//go:build amd64

package media

import "testing"

// TestSADKernelsExactGenericPath reruns the exactness sweep with the
// portable kernel dispatched in place of SSE2, so MeanAbsDiff and
// SpatialDetail are checked on both paths of an amd64 build.
func TestSADKernelsExactGenericPath(t *testing.T) {
	useSSE2 = false
	defer func() { useSSE2 = true }()
	TestSADKernelsExact(t)
}
