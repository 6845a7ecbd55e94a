// Package matrix provides the columnar binned feature matrix behind
// the histogram-based tree training engine. Each feature column is
// quantile-binned once into at most 256 uint8 bins; the binned matrix
// is then shared read-only by every tree of an ensemble, so the
// per-node split search degrades from O(n log n) re-sorting per
// feature to an O(n) histogram accumulation plus an O(bins) scan —
// the standard trick (LightGBM-style) that lets disk-failure studies
// train tree ensembles on millions of drive-days.
//
// Exactness guarantee: when a feature has no more distinct values
// than the bin budget, every distinct value receives its own bin and
// the per-bin value bounds make the candidate thresholds (midpoints
// between adjacent populated bins) identical to the exact sort-based
// splitter's midpoints between adjacent present values. The histogram
// engine then grows bit-identical trees to the exact engine for
// integer-valued targets (see tree's equivalence tests).
package matrix

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/ml"
	"repro/internal/parallel"
)

// MaxBins is the hard per-feature bin ceiling imposed by the uint8
// bin index representation.
const MaxBins = 256

// DefaultBins is the bin budget selected by a zero Bins configuration
// in the ensemble trainers.
const DefaultBins = 256

// BinnedMatrix is a column-major quantile-binned view of a training
// matrix. It is immutable after Build and safe for concurrent readers.
type BinnedMatrix struct {
	rows, cols int
	// cols[f][row] is the bin index of row's value of feature f.
	bins [][]uint8
	// lo[f][b] / hi[f][b] bound the raw values observed in bin b of
	// feature f at build time; candidate split thresholds are midpoints
	// between adjacent populated bins' hi and lo.
	lo, hi [][]float64
}

// Rows returns the number of rows (samples).
func (m *BinnedMatrix) Rows() int { return m.rows }

// Cols returns the number of feature columns.
func (m *BinnedMatrix) Cols() int { return m.cols }

// NumBins returns the number of bins of feature f.
func (m *BinnedMatrix) NumBins(f int) int { return len(m.lo[f]) }

// Column returns feature f's per-row bin indexes. The slice is shared
// and must not be mutated.
func (m *BinnedMatrix) Column(f int) []uint8 { return m.bins[f] }

// CutBetween returns the split threshold separating leftBin from
// rightBin of feature f: the midpoint between the highest value seen
// in leftBin and the lowest seen in rightBin. With one bin per
// distinct value this is exactly the exact splitter's midpoint
// between adjacent present values.
func (m *BinnedMatrix) CutBetween(f, leftBin, rightBin int) float64 {
	return (m.hi[f][leftBin] + m.lo[f][rightBin]) / 2
}

// Build bins the row-major matrix xs into at most maxBins quantile
// bins per feature. maxBins 0 selects DefaultBins; values are clamped
// to [2, MaxBins]. Build rejects NaN inputs — the growers rely on a
// NaN-free matrix, since NaN defeats both ordering and binning.
func Build(xs [][]float64, maxBins int) (*BinnedMatrix, error) {
	return BuildWorkers(xs, maxBins, 1)
}

// BuildWorkers is Build with the feature columns binned on at most
// workers goroutines (the repository convention: 0 = GOMAXPROCS,
// 1 = serial). Output is identical at any worker count.
func BuildWorkers(xs [][]float64, maxBins, workers int) (*BinnedMatrix, error) {
	if len(xs) == 0 || len(xs[0]) == 0 {
		return nil, fmt.Errorf("matrix: empty input")
	}
	maxBins = NormBins(maxBins)
	rows, cols := len(xs), len(xs[0])
	m := &BinnedMatrix{
		rows: rows,
		cols: cols,
		bins: make([][]uint8, cols),
		lo:   make([][]float64, cols),
		hi:   make([][]float64, cols),
	}
	if err := parallel.Do(cols, workers, func(f int) error {
		col := make([]float64, rows)
		for i := range xs {
			if len(xs[i]) != cols {
				return fmt.Errorf("matrix: row %d has width %d, want %d", i, len(xs[i]), cols)
			}
			v := xs[i][f]
			if math.IsNaN(v) {
				return fmt.Errorf("matrix: NaN at row %d, feature %d", i, f)
			}
			col[i] = v
		}
		m.bins[f], m.lo[f], m.hi[f] = binColumn(col, maxBins)
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// FromSamples builds the binned matrix over the samples' feature
// vectors. The samples are not retained.
func FromSamples(samples []ml.Sample, maxBins, workers int) (*BinnedMatrix, error) {
	xs := make([][]float64, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
	}
	return BuildWorkers(xs, maxBins, workers)
}

// NormBins maps a bin budget to its effective value: 0 selects
// DefaultBins, other values clamp to [2, MaxBins]. The trainers reject
// negative budgets before they reach the binning layer.
func NormBins(maxBins int) int {
	switch {
	case maxBins == 0:
		return DefaultBins
	case maxBins < 2:
		return 2
	case maxBins > MaxBins:
		return MaxBins
	}
	return maxBins
}

// gatherBlock is the number of feature columns transposed per pass
// over the arena: per-column strided gathers would stream the whole
// arena once per feature, so blocking cuts memory traffic cols/
// gatherBlock-fold while capping the transpose buffer at
// gatherBlock×rows values.
const gatherBlock = 8

// BuildStrided bins a row-major arena of rows×cols values — the
// columnar SampleSet layout — without materialising per-row slices.
// Binning semantics are identical to BuildWorkers.
func BuildStrided(x []float64, rows, cols, maxBins, workers int) (*BinnedMatrix, error) {
	if rows == 0 || cols == 0 || len(x) != rows*cols {
		return nil, fmt.Errorf("matrix: arena holds %d values, want %d rows × %d", len(x), rows, cols)
	}
	maxBins = NormBins(maxBins)
	m := &BinnedMatrix{
		rows: rows,
		cols: cols,
		bins: make([][]uint8, cols),
		lo:   make([][]float64, cols),
		hi:   make([][]float64, cols),
	}
	blocks := (cols + gatherBlock - 1) / gatherBlock
	if err := parallel.Do(blocks, workers, func(bi int) error {
		f0 := bi * gatherBlock
		f1 := f0 + gatherBlock
		if f1 > cols {
			f1 = cols
		}
		nf := f1 - f0
		buf := make([]float64, nf*rows)
		for i := 0; i < rows; i++ {
			base := i * cols
			for k := 0; k < nf; k++ {
				v := x[base+f0+k]
				if math.IsNaN(v) {
					return fmt.Errorf("matrix: NaN at row %d, feature %d", i, f0+k)
				}
				buf[k*rows+i] = v
			}
		}
		for k := 0; k < nf; k++ {
			f := f0 + k
			m.bins[f], m.lo[f], m.hi[f] = binColumn(buf[k*rows:(k+1)*rows], maxBins)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// SharedFromSet returns the set-wide binned matrix of a SampleSet,
// building it at most once per effective bin budget and caching it on
// the set — the bin-once contract behind grid search, SFS, and
// calibration folds: candidate subsets are realised as row-masked
// views (per-row weights or index lists) of this one matrix instead of
// re-binning per candidate. Safe for concurrent callers; every caller
// with the same budget shares one build. A windowed set has no
// rows×width arena to bin and is rejected.
func SharedFromSet(set *ml.SampleSet, maxBins, workers int) (*BinnedMatrix, error) {
	if set.Windowed() {
		return nil, fmt.Errorf("matrix: cannot bin a windowed sample set")
	}
	nb := NormBins(maxBins)
	v, err := set.Cached(int64(nb), func() (any, error) {
		return BuildStrided(set.Arena(), set.Len(), set.Width(), nb, workers)
	})
	if err != nil {
		return nil, err
	}
	return v.(*BinnedMatrix), nil
}

// binColumn quantile-bins one feature column: if the column has at
// most maxBins distinct values each gets its own bin (the exactness
// regime); otherwise greedy quantile boundaries target rows/maxBins
// rows per bin, never splitting equal values across bins.
//
// Columns of small integers — SMART counters, event and BSOD counts,
// firmware codes, i.e. most of this repository's features — take a
// dense-histogram path that skips the O(n log n) sort entirely; its
// distinct-value census is identical to the sorted scan's, so the
// resulting bins are bit-for-bit the same.
func binColumn(col []float64, maxBins int) (bins []uint8, lo, hi []float64) {
	if bins, lo, hi, ok := binColumnDense(col, maxBins); ok {
		return bins, lo, hi
	}
	n := len(col)
	sorted := append([]float64(nil), col...)
	sortFloats(sorted)

	// Distinct values with multiplicities.
	var vals []float64
	cnts := make([]int, 0, 16)
	for i := 0; i < n; {
		j := i
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		vals = append(vals, sorted[i])
		cnts = append(cnts, j-i)
		i = j
	}

	lo, hi = cutsFrom(vals, cnts, n, maxBins)

	// Map every row value to its bin by binary search on the bin upper
	// bounds; every value was observed at build time, so it lands in
	// the bin whose [lo, hi] range contains it.
	bins = make([]uint8, n)
	for i, v := range col {
		bins[i] = uint8(sort.SearchFloat64s(hi, v))
	}
	return bins, lo, hi
}

// sortFloats sorts a NaN-free column ascending: comparison sort below
// the radix break-even, 8-pass LSD radix above it. Radix runs in O(n)
// against the comparison sort's O(n log n), which matters because
// binning a fleet-wide arena sorts a few hundred thousand values per
// continuous column.
func sortFloats(col []float64) {
	if len(col) < 2048 {
		slices.Sort(col)
		return
	}
	radixSortFloats(col)
}

// radixSortFloats sorts via the order-preserving uint64 transform of
// float64 (flip all bits of negatives, flip the sign bit of
// non-negatives), 8 bits per pass, skipping passes whose byte is
// constant. The caller guarantees no NaNs; ±0 compare equal before and
// after, so the ascending value sequence is identical to a comparison
// sort's.
func radixSortFloats(col []float64) {
	n := len(col)
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i, v := range col {
		u := math.Float64bits(v)
		if u&(1<<63) != 0 {
			u = ^u
		} else {
			u |= 1 << 63
		}
		a[i] = u
	}
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, u := range a {
			counts[(u>>shift)&0xff]++
		}
		if counts[(a[0]>>shift)&0xff] == n {
			continue // constant byte: pass is the identity
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, u := range a {
			k := (u >> shift) & 0xff
			b[counts[k]] = u
			counts[k]++
		}
		a, b = b, a
	}
	for i, u := range a {
		if u&(1<<63) != 0 {
			u &^= 1 << 63
		} else {
			u = ^u
		}
		col[i] = math.Float64frombits(u)
	}
}

// cutsFrom derives the bin value bounds from the ascending distinct
// values and their multiplicities: one bin per value when they fit the
// budget, greedy quantile boundaries otherwise.
func cutsFrom(vals []float64, cnts []int, n, maxBins int) (lo, hi []float64) {
	if len(vals) <= maxBins {
		lo = append([]float64(nil), vals...)
		hi = append([]float64(nil), vals...)
		return lo, hi
	}
	per := float64(n) / float64(maxBins)
	acc, start := 0, 0
	for i := range vals {
		acc += cnts[i]
		if i < len(vals)-1 && len(lo) < maxBins-1 &&
			float64(acc) >= float64(len(lo)+1)*per {
			lo = append(lo, vals[start])
			hi = append(hi, vals[i])
			start = i + 1
		}
	}
	lo = append(lo, vals[start])
	hi = append(hi, vals[len(vals)-1])
	return lo, hi
}

// denseRange is the widest integer value range the dense census
// handles; beyond it the histogram's footprint would rival the sort it
// replaces.
const denseRange = 1 << 16

// binColumnDense bins a column whose values sit on a narrow integer or
// half-integer grid using a dense histogram: one O(n) census pass
// replaces the sort, and a value-offset lookup table replaces the
// per-row binary search. Half-integer grids arise from the cleaning
// stage's window means, so together the two scales cover nearly every
// counter-derived feature. The census yields exactly the sorted scan's
// ascending distinct values with multiplicities and the LUT assigns
// each value the bin whose [lo, hi] range contains it, so output is
// identical to the general path. ok reports whether the column
// qualifies.
func binColumnDense(col []float64, maxBins int) (bins []uint8, lo, hi []float64, ok bool) {
	if len(col) == 0 {
		return nil, nil, nil, false
	}
	// scale maps values onto an integer grid: v*scale must be integral
	// for every row. Detected in one pass; 2 covers the half-integer
	// values the cleaner's window means produce.
	scale := 1.0
	minV, maxV := col[0], col[0]
	for _, v := range col {
		if v-v != 0 {
			return nil, nil, nil, false // NaN or ±Inf
		}
		s := v * scale
		if s != math.Trunc(s) {
			scale *= 2
			s = v * scale
			if s != math.Trunc(s) || scale > 2 {
				return nil, nil, nil, false
			}
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	span := (maxV - minV) * scale
	if span >= denseRange {
		return nil, nil, nil, false
	}
	base := minV * scale
	width := int(span) + 1
	counts := make([]int, width)
	for _, v := range col {
		counts[int(v*scale-base)]++
	}
	vals := make([]float64, 0, 16)
	cnts := make([]int, 0, 16)
	for off, c := range counts {
		if c > 0 {
			vals = append(vals, (base+float64(off))/scale)
			cnts = append(cnts, c)
		}
	}
	lo, hi = cutsFrom(vals, cnts, len(col), maxBins)

	// lut maps grid offset → bin, walking the ascending distinct
	// values against the ascending upper bounds (the first bound ≥ v,
	// as the binary search would find).
	lut := make([]uint8, width)
	b := 0
	for _, v := range vals {
		for v > hi[b] {
			b++
		}
		lut[int(v*scale-base)] = uint8(b)
	}
	bins = make([]uint8, len(col))
	for i, v := range col {
		bins[i] = lut[int(v*scale-base)]
	}
	return bins, lo, hi, true
}
