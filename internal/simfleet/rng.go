package simfleet

import (
	"math"
	"math/rand"
	"sync"
)

// driveRNGSeed derives a drive's RNG seed from the run seed and its
// serial number: FNV-1a inlined (bit-identical to hash/fnv) so the hot
// path neither allocates a hasher nor copies the string to []byte.
func driveRNGSeed(seed int64, sn string) int64 {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for i := 0; i < len(sn); i++ {
		h ^= uint64(sn[i])
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return seed ^ int64(h)
}

// rngPool recycles per-drive RNGs, so a drive's trajectory does not
// depend on how many other drives exist or the order they are
// generated in, at no allocation cost: (*Rand).Seed resets a pooled generator to the exact stream a fresh
// rand.New(rand.NewSource(seed)) would produce, without the two
// allocations per drive.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// poisson draws from a Poisson distribution with the given mean using
// Knuth's method for small means and a normal approximation above 30,
// which is plenty for per-day event counts.
func poisson(r *rand.Rand, mean float64) int {
	switch {
	case mean <= 0:
		return 0
	case mean > 30:
		n := int(math.Round(mean + math.Sqrt(mean)*r.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	return poissonSmall(r, math.Exp(-mean))
}

// poissonSmall is Knuth's method with exp(-mean) precomputed. Callers
// with steady-state means (the background emission rates, drawn once
// per drive-day across the whole fleet) cache the exponential and skip
// the math.Exp call that dominated the simulation profile; the draw
// sequence is identical because the cached value is the same
// math.Exp(-mean) the direct path computes.
func poissonSmall(r *rand.Rand, expNegMean float64) int {
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= expNegMean {
			return k
		}
		k++
	}
}

// geometricDelay draws a non-negative integer with the given mean,
// truncated at max. A zero mean always yields zero.
func geometricDelay(r *rand.Rand, mean float64, max int) int {
	if mean <= 0 || max <= 0 {
		return 0
	}
	// Geometric on {0,1,...} with success probability p has mean (1-p)/p.
	p := 1 / (mean + 1)
	d := 0
	for r.Float64() > p && d < max {
		d++
	}
	return d
}

// weightedIndex picks an index with probability proportional to
// weights[i]. All-zero weights pick uniformly.
func weightedIndex(r *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// bathtubFailureHours samples the power-on-hour age at which a faulty
// drive dies, following the bathtub curve of Observation #1 / Fig. 2:
// an infant-mortality spike, a flat useful-life region, and a rising
// wear-out tail.
func bathtubFailureHours(r *rand.Rand, maxHours float64) float64 {
	switch u := r.Float64(); {
	case u < 0.30: // infant mortality: exponential near zero
		h := r.ExpFloat64() * (maxHours * 0.03)
		if h > maxHours {
			h = maxHours
		}
		return h
	case u < 0.60: // useful life: uniform low plateau
		return r.Float64() * maxHours
	default: // wear-out: density rising as h^3 toward maxHours
		return maxHours * math.Pow(r.Float64(), 1.0/4.0)
	}
}
