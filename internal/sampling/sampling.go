// Package sampling implements the paper's time-series-based training
// optimisations (Section III-C(3), Fig. 8): RandomUnderSampler for
// class imbalance, timepoint-based train/test segmentation, and
// time-series cross-validation in which no fold ever trains on data
// newer than its validation data.
//
// Every primitive selects *rows* of a shared ml.SampleSet instead of
// copying sample structs, so a grid-search candidate, an SFS step, or
// a CV fold costs one int32 slice rather than a sample-set copy. Each
// selects exactly the rows of its []ml.Sample counterpart in
// oracle_test.go, in the same order, for the same seed; views_test.go
// pins this down across seeds and datasets.
package sampling

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/ml"
)

// sortedByDay returns the view's arena rows stably ordered by day.
func sortedByDay(v ml.View) []int32 {
	idx := v.Indices()
	set := v.Set()
	sort.SliceStable(idx, func(a, b int) bool { return set.Day(int(idx[a])) < set.Day(int(idx[b])) })
	return idx
}

// SplitFractionView segments chronologically by row count: the
// earliest frac of rows (after stable day ordering) train, the rest
// test. No feature data is copied.
func SplitFractionView(v ml.View, frac float64) (train, test ml.View) {
	idx := sortedByDay(v)
	cut := int(float64(len(idx)) * frac)
	return v.WithRows(idx[:cut:cut]), v.WithRows(idx[cut:])
}

// SplitAtDayView implements timepoint-based sample segmentation
// (Fig. 8(a)(2)) on row indexes: rows observed on or before
// learnEndDay form the training set (the learning time window LW),
// strictly later rows the test set (input order preserved on both
// sides), so training never sees data from after any test row.
func SplitAtDayView(v ml.View, learnEndDay int) (train, test ml.View) {
	n := v.Len()
	// Non-nil even when empty: a nil row slice would mean "all rows".
	tr := make([]int32, 0, n)
	te := make([]int32, 0)
	for i := 0; i < n; i++ {
		if v.Day(i) <= learnEndDay {
			tr = append(tr, v.RowIndex(i))
		} else {
			te = append(te, v.RowIndex(i))
		}
	}
	return v.WithRows(tr), v.WithRows(te)
}

// RandomSplitView is the conventional (non-time-aware) m:n split the
// paper argues against, on row indexes; it is kept for the
// segmentation ablation.
func RandomSplitView(v ml.View, testFrac float64, seed int64) (train, test ml.View) {
	idx := v.Indices()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	cut := len(idx) - int(float64(len(idx))*testFrac)
	return v.WithRows(idx[:cut:cut]), v.WithRows(idx[cut:])
}

// UnderSampleView balances classes by keeping every positive row and a
// seeded uniform subset of negatives sized ratio× the positive count
// (the paper uses 3:1 or 5:1); when there are fewer negatives than the
// target, all are kept. Input order is preserved, keeping downstream
// time-based splits valid. The ratio must be positive and finite.
func UnderSampleView(v ml.View, ratio float64, seed int64) (ml.View, error) {
	if !(ratio > 0) || math.IsInf(ratio, 1) {
		return ml.View{}, fmt.Errorf("sampling: ratio %g must be positive and finite", ratio)
	}
	neg, pos := v.ClassCounts()
	target := int(float64(pos) * ratio)
	n := v.Len()
	if pos == 0 || neg <= target {
		return v.WithRows(v.Indices()), nil
	}
	// Choose the surviving negative positions without replacement.
	negPositions := make([]int, 0, neg)
	for i := 0; i < n; i++ {
		if v.Y(i) == 0 {
			negPositions = append(negPositions, i)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(negPositions), func(i, j int) {
		negPositions[i], negPositions[j] = negPositions[j], negPositions[i]
	})
	keep := make(map[int]bool, target)
	for _, p := range negPositions[:target] {
		keep[p] = true
	}
	out := make([]int32, 0, pos+target)
	for i := 0; i < n; i++ {
		if v.Y(i) == 1 || keep[i] {
			out = append(out, v.RowIndex(i))
		}
	}
	return v.WithRows(out), nil
}

// FoldView is one cross-validation iteration over views.
type FoldView struct {
	Train ml.View
	Val   ml.View
}

// TimeSeriesCVView implements the paper's time-series cross-validation
// (Fig. 8(b)(2)) on row indexes: the day-ordered rows divide into 2k
// contiguous subsets and iteration i trains on subsets [i, i+k) and
// validates on subset i+k, so training data always precedes validation
// data. Because each training window is contiguous in the sorted
// order, every fold is a pair of subslices of one shared index array —
// k folds cost one sort and one index copy in total.
func TimeSeriesCVView(v ml.View, k int) ([]FoldView, error) {
	if k < 1 {
		return nil, fmt.Errorf("sampling: k %d must be ≥ 1", k)
	}
	if v.Len() < 2*k {
		return nil, fmt.Errorf("sampling: %d samples cannot form 2k=%d subsets", v.Len(), 2*k)
	}
	idx := sortedByDay(v)
	bounds := chunkBounds(len(idx), 2*k)
	folds := make([]FoldView, 0, k)
	for i := 0; i < k; i++ {
		trLo, trHi := bounds[i], bounds[i+k]
		vaLo, vaHi := bounds[i+k], bounds[i+k+1]
		folds = append(folds, FoldView{
			Train: v.WithRows(idx[trLo:trHi:trHi]),
			Val:   v.WithRows(idx[vaLo:vaHi:vaHi]),
		})
	}
	return folds, nil
}

// KFoldCVView is the conventional k-fold cross-validation the paper
// argues against (training folds may contain future data), on row
// indexes; it is kept for the cross-validation ablation.
func KFoldCVView(v ml.View, k int, seed int64) ([]FoldView, error) {
	if k < 2 {
		return nil, fmt.Errorf("sampling: k %d must be ≥ 2", k)
	}
	if v.Len() < k {
		return nil, fmt.Errorf("sampling: %d samples cannot form %d folds", v.Len(), k)
	}
	idx := v.Indices()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	bounds := chunkBounds(len(idx), k)
	folds := make([]FoldView, 0, k)
	for i := 0; i < k; i++ {
		tr := make([]int32, 0, len(idx)-(bounds[i+1]-bounds[i]))
		for j := 0; j < k; j++ {
			if j != i {
				tr = append(tr, idx[bounds[j]:bounds[j+1]]...)
			}
		}
		folds = append(folds, FoldView{
			Train: v.WithRows(tr),
			Val:   v.WithRows(idx[bounds[i]:bounds[i+1]:bounds[i+1]]),
		})
	}
	return folds, nil
}

// chunkBounds returns the n+1 boundaries dividing length rows into n
// contiguous near-equal subsets, the larger ones first.
func chunkBounds(length, n int) []int {
	bounds := make([]int, n+1)
	base := length / n
	rem := length % n
	start := 0
	for i := 0; i < n; i++ {
		bounds[i] = start
		size := base
		if i < rem {
			size++
		}
		start += size
	}
	bounds[n] = start
	return bounds
}
