package circuit

import "math"

// CellFailProb returns the probability that a single bitcell's write misses
// the cycle time when the design is margined for k sigmas of variation:
// the upper-tail probability of a standard normal beyond k.
//
// The paper sizes the nominal cycle for 6 sigma ("only one critical path
// per billion would not fit"); Faulty-Bits designs accept k = 4 or less and
// disable the offending cells (Section 2.2).
func CellFailProb(k float64) float64 {
	return 0.5 * math.Erfc(k/math.Sqrt2)
}

// LineFailProb returns the probability that at least one of bits cells in a
// line (or other disable granule) fails at margin k. Faulty-Bits designs
// disable whole granules, so this is the fraction of disabled capacity.
func LineFailProb(k float64, bits int) float64 {
	if bits <= 0 {
		return 0
	}
	p := CellFailProb(k)
	return 1 - math.Pow(1-p, float64(bits))
}
