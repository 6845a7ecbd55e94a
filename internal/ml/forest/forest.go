// Package forest implements a random forest of CART gini trees with
// bootstrap bagging and per-split feature subsampling — the algorithm
// the paper finds best for MFPA (98.18% TPR / 0.56% FPR with SFWB
// features; "the tree-based model is superior to other models for
// discontinuous data"). Trees are grown in parallel across goroutines.
//
// By default training runs on the histogram engine: the features are
// quantile-binned once into a shared columnar matrix, each bootstrap
// is expressed as per-row integer weights on that matrix (no row
// copies), and every tree finds splits by histogram accumulation
// instead of per-node sorting.
package forest

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/ml"
	"repro/internal/ml/matrix"
	"repro/internal/ml/predict"
	"repro/internal/ml/tree"
	"repro/internal/parallel"
)

// Trainer configures random forest training.
type Trainer struct {
	// Trees is the ensemble size; 0 selects 100.
	Trees int
	// MaxDepth bounds each tree; 0 selects 12.
	MaxDepth int
	// MinSamplesLeaf is per-leaf minimum; 0 selects 1.
	MinSamplesLeaf int
	// MaxFeatures per split; 0 selects √width.
	MaxFeatures int
	// Bins is the histogram engine's per-feature bin budget: 0 selects
	// matrix.DefaultBins (256), positive values are clamped to at most
	// 256, and negative values are rejected. Trees are bit-identical to
	// exact sort-based split search while bins cover every distinct
	// value.
	Bins int
	// Seed drives bootstrap sampling and per-tree feature subsampling.
	Seed int64
	// Parallelism bounds the training goroutines; 0 selects GOMAXPROCS.
	Parallelism int
}

// Name implements ml.Trainer.
func (t *Trainer) Name() string { return "RF" }

// Train implements ml.Trainer.
func (t *Trainer) Train(samples []ml.Sample) (ml.Classifier, error) {
	if err := t.validateBins(); err != nil {
		return nil, err
	}
	if err := ml.ValidateSamples(samples, false); err != nil {
		return nil, err
	}
	nTrees := t.Trees
	if nTrees == 0 {
		nTrees = 100
	}
	maxFeatures := t.MaxFeatures
	if maxFeatures == 0 {
		maxFeatures = -1 // tree.Config: √width
	}
	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i := range samples {
		xs[i] = samples[i].X
		ys[i] = float64(samples[i].Y)
	}

	// Pre-draw one bootstrap seed per tree from a master source so the
	// result does not depend on goroutine scheduling.
	master := rand.New(rand.NewSource(t.Seed + 101))
	seeds := make([]int64, nTrees)
	for i := range seeds {
		seeds[i] = master.Int63()
	}

	cfg := func(ti int) tree.Config {
		return tree.Config{
			MaxDepth:       t.MaxDepth,
			MinSamplesLeaf: t.MinSamplesLeaf,
			MaxFeatures:    maxFeatures,
			Seed:           seeds[ti],
		}
	}
	m := &Model{trees: make([]*tree.Classifier, nTrees)}

	// Histogram engine: bin once, share the matrix read-only across
	// all trees, and express each bootstrap as integer row weights.
	bm, err := matrix.BuildWorkers(xs, t.Bins, t.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("forest: %w", err)
	}
	if err := parallel.Do(nTrees, t.Parallelism, func(ti int) error {
		r := rand.New(rand.NewSource(seeds[ti]))
		w := make([]int, len(xs))
		for i := 0; i < len(xs); i++ {
			w[r.Intn(len(xs))]++
		}
		m.trees[ti] = tree.GrowClassifierBinned(bm, ys, w, cfg(ti))
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// TrainView implements ml.ViewTrainer: it trains on a zero-copy view
// of a columnar SampleSet, reusing the *set-wide* binned matrix
// (built once per set and cached there — the bin-once contract), so a
// grid-search candidate or CV fold costs only tree growth. Bootstraps
// are drawn over the view's rows and expressed as per-row weights on
// the shared matrix; the candidate rows are handed to the grower in
// view order, which makes every tree identical to one grown on a
// privately binned copy of the subset whenever the bin budget covers
// each feature's distinct values (the exactness regime — see
// internal/ml/matrix). A column sub-view (v.Cols) restricts split
// search without re-extracting features; grown trees keep global
// feature indexes and predict on full-width rows.
func (t *Trainer) TrainView(v ml.View) (ml.Classifier, error) {
	if err := t.validateBins(); err != nil {
		return nil, err
	}
	if err := ml.ValidateView(v, false); err != nil {
		return nil, err
	}
	set := v.Set()
	bm, err := matrix.SharedFromSet(set, t.Bins, t.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("forest: %w", err)
	}
	ys := set.LabelsFloat()
	n := v.Len()

	nTrees := t.Trees
	if nTrees == 0 {
		nTrees = 100
	}
	maxFeatures := t.MaxFeatures
	if maxFeatures == 0 {
		maxFeatures = -1 // tree.Config: √width
	}
	master := rand.New(rand.NewSource(t.Seed + 101))
	seeds := make([]int64, nTrees)
	for i := range seeds {
		seeds[i] = master.Int63()
	}
	m := &Model{trees: make([]*tree.Classifier, nTrees)}
	if err := parallel.Do(nTrees, t.Parallelism, func(ti int) error {
		r := rand.New(rand.NewSource(seeds[ti]))
		// Bootstrap counts by view position — O(view), never O(set) —
		// then compacted to surviving rows in view order (weights
		// parallel to rows, the GrowClassifierBinnedView contract), so
		// histogram accumulation visits them exactly as the subset
		// engine would.
		w := make([]int, n)
		for i := 0; i < n; i++ {
			w[r.Intn(n)]++
		}
		rows := make([]int, 0, n)
		wts := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if w[i] > 0 {
				rows = append(rows, int(v.RowIndex(i)))
				wts = append(wts, w[i])
			}
		}
		m.trees[ti] = tree.GrowClassifierBinnedView(bm, ys, wts, rows, v.Cols(), tree.Config{
			MaxDepth:       t.MaxDepth,
			MinSamplesLeaf: t.MinSamplesLeaf,
			MaxFeatures:    maxFeatures,
			Seed:           seeds[ti],
		})
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

func (t *Trainer) validateBins() error {
	if t.Bins < 0 {
		return fmt.Errorf("forest: Bins %d must be ≥ 0", t.Bins)
	}
	return nil
}

// Model is a fitted random forest.
type Model struct {
	trees []*tree.Classifier

	// flat is the compiled batch inference form, built lazily on the
	// first batch call so training and Import stay cheap; models
	// reconstructed by modelio therefore rebuild it automatically.
	flatOnce sync.Once
	flat     *predict.Ensemble
}

// PredictProba implements ml.Classifier: the mean of the trees' leaf
// probabilities.
func (m *Model) PredictProba(x []float64) float64 {
	var s float64
	for _, t := range m.trees {
		s += t.PredictProba(x)
	}
	return s / float64(len(m.trees))
}

// flatten compiles (once) the flattened inference arena. Compilation
// from a fitted model's own trees cannot fail; a nil return covers the
// degenerate empty model.
func (m *Model) flatten() *predict.Ensemble {
	m.flatOnce.Do(func() {
		exported := make([]tree.Exported, len(m.trees))
		for i, t := range m.trees {
			exported[i] = t.Export()
		}
		if e, err := predict.CompileForest(exported); err == nil {
			m.flat = e
		}
	})
	return m.flat
}

// PredictProbaBatch implements ml.BatchClassifier on the flattened
// arena: scores are bit-exact against PredictProba at any worker count
// (0 = GOMAXPROCS, 1 = serial).
func (m *Model) PredictProbaBatch(xs [][]float64, out []float64, workers int) {
	if e := m.flatten(); e != nil {
		e.PredictProbaBatch(xs, out, workers)
		return
	}
	_ = parallel.Do(len(xs), workers, func(i int) error {
		out[i] = m.PredictProba(xs[i])
		return nil
	})
}

// Size returns the ensemble size.
func (m *Model) Size() int { return len(m.trees) }

// FeatureImportance returns the normalised mean-decrease-in-impurity
// importance of each feature across the ensemble. The vector sums to 1
// (or is all-zero for stump-only forests).
func (m *Model) FeatureImportance() []float64 {
	if len(m.trees) == 0 {
		return nil
	}
	var imp []float64
	for _, t := range m.trees {
		ti := t.FeatureImportance()
		if imp == nil {
			imp = make([]float64, len(ti))
		}
		for i, v := range ti {
			imp[i] += v
		}
	}
	var total float64
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// Exported is the forest's serialisation form.
type Exported struct {
	Trees []tree.Exported
}

// Export returns the model's serialisation form.
func (m *Model) Export() Exported {
	out := Exported{Trees: make([]tree.Exported, len(m.trees))}
	for i, t := range m.trees {
		out.Trees[i] = t.Export()
	}
	return out
}

// Import reconstructs a forest from its serialisation form.
func Import(e Exported) (*Model, error) {
	if len(e.Trees) == 0 {
		return nil, fmt.Errorf("forest: empty export")
	}
	m := &Model{trees: make([]*tree.Classifier, len(e.Trees))}
	for i, te := range e.Trees {
		t, err := tree.ImportClassifier(te)
		if err != nil {
			return nil, fmt.Errorf("forest: tree %d: %w", i, err)
		}
		m.trees[i] = t
	}
	return m, nil
}

// Explain returns the per-feature contributions for x averaged across
// the ensemble, plus the mean bias. bias + Σ contributions equals
// PredictProba(x) exactly, so the decomposition is faithful.
func (m *Model) Explain(x []float64) (contributions []float64, bias float64) {
	if len(m.trees) == 0 {
		return nil, 0
	}
	var sum []float64
	for _, t := range m.trees {
		c, b := t.Explain(x)
		if sum == nil {
			sum = make([]float64, len(c))
		}
		for i, v := range c {
			sum[i] += v
		}
		bias += b
	}
	n := float64(len(m.trees))
	for i := range sum {
		sum[i] /= n
	}
	return sum, bias / n
}
