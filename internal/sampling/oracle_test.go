package sampling

import (
	"fmt"
	"math/rand"

	"repro/internal/ml"
)

// The []ml.Sample sampling primitives the view forms in views.go are
// pinned against: each view function must select exactly the rows its
// slice counterpart here returns, in the same order, for the same seed.

// UnderSample balances classes by keeping every positive sample and a
// uniform random subset of negatives sized ratio× the positive count
// (the paper uses 3:1 or 5:1). When there are fewer negatives than the
// target, all are kept. The input order of the survivors is preserved,
// keeping downstream time-based splits valid.
func UnderSample(samples []ml.Sample, ratio float64, seed int64) ([]ml.Sample, error) {
	if ratio <= 0 {
		return nil, fmt.Errorf("sampling: ratio %g must be > 0", ratio)
	}
	neg, pos := ml.ClassCounts(samples)
	target := int(float64(pos) * ratio)
	if pos == 0 || neg <= target {
		out := make([]ml.Sample, len(samples))
		copy(out, samples)
		return out, nil
	}
	// Choose the surviving negative positions without replacement.
	negPositions := make([]int, 0, neg)
	for i := range samples {
		if samples[i].Y == 0 {
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
	out := make([]ml.Sample, 0, pos+target)
	for i := range samples {
		if samples[i].Y == 1 || keep[i] {
			out = append(out, samples[i])
		}
	}
	return out, nil
}

// SplitAtDay implements timepoint-based sample segmentation
// (Fig. 8(a)(2)): samples observed on or before learnEndDay form the
// training set (the learning time window LW), strictly later samples
// form the test set. This guarantees the training set contains no
// future data relative to any test sample.
func SplitAtDay(samples []ml.Sample, learnEndDay int) (train, test []ml.Sample) {
	for i := range samples {
		if samples[i].Day <= learnEndDay {
			train = append(train, samples[i])
		} else {
			test = append(test, samples[i])
		}
	}
	return train, test
}

// SplitFraction segments chronologically by sample count: the earliest
// frac of samples (after stable day ordering) train, the rest test.
func SplitFraction(samples []ml.Sample, frac float64) (train, test []ml.Sample) {
	sorted := make([]ml.Sample, len(samples))
	copy(sorted, samples)
	ml.SortByDay(sorted)
	cut := int(float64(len(sorted)) * frac)
	return sorted[:cut], sorted[cut:]
}

// RandomSplit is the conventional (non-time-aware) m:n split the paper
// argues against; it is kept for the segmentation ablation bench.
func RandomSplit(samples []ml.Sample, testFrac float64, seed int64) (train, test []ml.Sample) {
	shuffled := make([]ml.Sample, len(samples))
	copy(shuffled, samples)
	shuffle(shuffled, seed)
	cut := len(shuffled) - int(float64(len(shuffled))*testFrac)
	return shuffled[:cut], shuffled[cut:]
}

// Fold is one cross-validation iteration.
type Fold struct {
	Train []ml.Sample
	Val   []ml.Sample
}

// TimeSeriesCV implements the paper's time-series cross-validation
// (Fig. 8(b)(2)): samples are ordered chronologically and divided into
// 2k contiguous subsets; iteration i trains on subsets [i, i+k) and
// validates on subset i+k, so training data always precedes validation
// data. It returns k folds.
func TimeSeriesCV(samples []ml.Sample, k int) ([]Fold, error) {
	if k < 1 {
		return nil, fmt.Errorf("sampling: k %d must be ≥ 1", k)
	}
	if len(samples) < 2*k {
		return nil, fmt.Errorf("sampling: %d samples cannot form 2k=%d subsets", len(samples), 2*k)
	}
	sorted := make([]ml.Sample, len(samples))
	copy(sorted, samples)
	ml.SortByDay(sorted)

	subsets := chunk(sorted, 2*k)
	folds := make([]Fold, 0, k)
	for i := 0; i < k; i++ {
		var tr []ml.Sample
		for j := i; j < i+k; j++ {
			tr = append(tr, subsets[j]...)
		}
		folds = append(folds, Fold{Train: tr, Val: subsets[i+k]})
	}
	return folds, nil
}

// KFoldCV is the conventional k-fold cross-validation the paper argues
// against (training folds may contain future data); kept for the
// cross-validation ablation bench.
func KFoldCV(samples []ml.Sample, k int, seed int64) ([]Fold, error) {
	if k < 2 {
		return nil, fmt.Errorf("sampling: k %d must be ≥ 2", k)
	}
	if len(samples) < k {
		return nil, fmt.Errorf("sampling: %d samples cannot form %d folds", len(samples), k)
	}
	shuffled := make([]ml.Sample, len(samples))
	copy(shuffled, samples)
	shuffle(shuffled, seed)

	subsets := chunk(shuffled, k)
	folds := make([]Fold, 0, k)
	for i := 0; i < k; i++ {
		var tr []ml.Sample
		for j := 0; j < k; j++ {
			if j != i {
				tr = append(tr, subsets[j]...)
			}
		}
		folds = append(folds, Fold{Train: tr, Val: subsets[i]})
	}
	return folds, nil
}

// chunk divides samples into n contiguous near-equal subsets.
func chunk(samples []ml.Sample, n int) [][]ml.Sample {
	out := make([][]ml.Sample, n)
	base := len(samples) / n
	rem := len(samples) % n
	start := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out[i] = samples[start : start+size]
		start += size
	}
	return out
}

// shuffle permutes samples deterministically with the given seed.
func shuffle(samples []ml.Sample, seed int64) {
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(samples), func(i, j int) {
		samples[i], samples[j] = samples[j], samples[i]
	})
}
