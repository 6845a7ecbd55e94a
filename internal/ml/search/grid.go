// Package search implements hyper-parameter grid search driven by
// time-series cross-validation, and the sequential forward feature
// selection (Whitney, 1971) the paper uses to pick the optimal feature
// subset per vendor.
package search

import (
	"fmt"
	"sort"

	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/parallel"
	"repro/internal/sampling"
)

// Factory builds a trainer from one grid point. Keys absent from the
// grid never appear in params.
type Factory func(params map[string]float64) ml.Trainer

// Grid maps parameter names to candidate values.
type Grid map[string][]float64

// Candidate is one evaluated grid point.
type Candidate struct {
	Params map[string]float64
	// Score is the mean validation AUC across time-series CV folds.
	Score float64
}

// GridSearchSet evaluates every combination in grid with k-fold
// time-series cross-validation on a zero-copy SampleSet view and
// returns all candidates (best first) plus the winner. It follows the
// paper's Section III-C(4): grid search combined with time-series-based
// cross-validation. CV folds are index views of the shared arena (no
// sample copies), a ViewTrainer candidate trains on row-masked views
// of the set-wide binned matrix (bin-once — quantile binning happens
// once for the whole sweep instead of once per combination × fold),
// and validation rows are scored straight out of the arena.
//
// The (combination × fold) pairs fan out across workers goroutines
// (0 = GOMAXPROCS, 1 = serial). The factory is invoked once per pair,
// so trainers are never shared across goroutines, and fold AUCs are
// averaged in fold order, so candidates and scores are identical at
// any worker count.
func GridSearchSet(factory Factory, grid Grid, v ml.View, k, workers int) ([]Candidate, Candidate, error) {
	combos := enumerate(grid)
	if len(combos) == 0 {
		return nil, Candidate{}, fmt.Errorf("search: empty grid")
	}
	folds, err := sampling.TimeSeriesCVView(v, k)
	if err != nil {
		return nil, Candidate{}, err
	}
	usable := make([]int, 0, len(folds))
	valXs := make([][][]float64, len(folds))
	valYs := make([][]int, len(folds))
	for fi := range folds {
		if bothClassesView(folds[fi].Train) && bothClassesView(folds[fi].Val) {
			usable = append(usable, fi)
			// Materialise each usable fold's validation rows once —
			// header-only — and share them across every combination.
			val := folds[fi].Val
			valXs[fi] = val.Xs()
			ys := make([]int, val.Len())
			for i := range ys {
				ys[i] = val.Y(i)
			}
			valYs[fi] = ys
		}
	}

	// Flatten to combo-major (combination, fold) pairs so a slow fold
	// of one combination overlaps with other work.
	type pair struct{ combo, fold int }
	pairs := make([]pair, 0, len(combos)*len(usable))
	for ci := range combos {
		for _, fi := range usable {
			pairs = append(pairs, pair{ci, fi})
		}
	}
	aucs, err := parallel.Map(len(pairs), workers, func(i int) (float64, error) {
		p := pairs[i]
		trainer := factory(combos[p.combo])
		clf, err := ml.TrainOn(trainer, folds[p.fold].Train)
		if err != nil {
			return 0, fmt.Errorf("search: %s on %v: %w", trainer.Name(), combos[p.combo], err)
		}
		scores := make([]float64, len(valXs[p.fold]))
		ml.ScoreBatch(clf, valXs[p.fold], scores, 1)
		return metrics.AUC(metrics.ROCFromScores(scores, valYs[p.fold])), nil
	})
	if err != nil {
		return nil, Candidate{}, err
	}

	candidates := make([]Candidate, len(combos))
	for ci, params := range combos {
		var sum float64
		// Pairs are combo-major, so this slice walks the combo's folds
		// in fold order — the same summation order as a serial run.
		for pi := ci * len(usable); pi < (ci+1)*len(usable); pi++ {
			sum += aucs[pi]
		}
		score := 0.0
		if len(usable) > 0 {
			score = sum / float64(len(usable))
		}
		candidates[ci] = Candidate{Params: params, Score: score}
	}
	sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].Score > candidates[j].Score })
	return candidates, candidates[0], nil
}

// enumerate expands the grid into the Cartesian product of its values,
// with deterministic ordering (keys sorted).
func enumerate(grid Grid) []map[string]float64 {
	keys := make([]string, 0, len(grid))
	for k := range grid {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	combos := []map[string]float64{{}}
	for _, key := range keys {
		var next []map[string]float64
		for _, base := range combos {
			for _, v := range grid[key] {
				m := make(map[string]float64, len(base)+1)
				for kk, vv := range base {
					m[kk] = vv
				}
				m[key] = v
				next = append(next, m)
			}
		}
		combos = next
	}
	return combos
}

func bothClassesView(v ml.View) bool {
	neg, pos := v.ClassCounts()
	return neg > 0 && pos > 0
}
