package media

// sadGeneric is the portable sum of absolute differences: the sum of
// |a[i]-b[i]| over i < len(a). len(b) must be >= len(a). It is the
// kernel on architectures without an assembly form, and the reference
// the assembly form is tested against everywhere.
func sadGeneric(a, b []uint8) uint64 {
	b = b[:len(a)]
	var sum uint64
	for i, v := range a {
		if w := b[i]; v > w {
			sum += uint64(v - w)
		} else {
			sum += uint64(w - v)
		}
	}
	return sum
}
