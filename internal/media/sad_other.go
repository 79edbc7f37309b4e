//go:build !amd64

package media

// sad returns the sum of |a[i]-b[i]| over i < len(a). len(b) must be
// >= len(a).
func sad(a, b []uint8) uint64 { return sadGeneric(a, b) }
