// Package gbdt implements gradient-boosted decision trees for binary
// classification with logistic loss (Friedman's TreeBoost with Newton
// leaf updates), one of the paper's five candidate algorithms.
//
// By default each round's regression tree is grown by the histogram
// engine on a columnar binned matrix built once per training run —
// the feature geometry never changes across rounds, only the gradient
// targets do — with stochastic-gradient-boosting row subsampling
// expressed as 0/1 row weights.
package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/ml"
	"repro/internal/ml/matrix"
	"repro/internal/ml/predict"
	"repro/internal/ml/tree"
	"repro/internal/parallel"
)

// Trainer configures boosting.
type Trainer struct {
	// Rounds is the number of boosting iterations; 0 selects 100.
	Rounds int
	// LearningRate shrinks each tree's contribution; 0 selects 0.1.
	LearningRate float64
	// MaxDepth bounds each regression tree; 0 selects 4.
	MaxDepth int
	// MinSamplesLeaf is per-leaf minimum; 0 selects 5.
	MinSamplesLeaf int
	// Subsample is the stochastic-gradient-boosting row fraction per
	// round; 0 selects 1 (no subsampling).
	Subsample float64
	// Bins is the histogram engine's per-feature bin budget: 0 selects
	// matrix.DefaultBins (256), positive values are clamped to at most
	// 256, and negative values are rejected.
	Bins int
	// Seed drives subsampling.
	Seed int64
}

// Name implements ml.Trainer.
func (t *Trainer) Name() string { return "GBDT" }

// Train implements ml.Trainer.
func (t *Trainer) Train(samples []ml.Sample) (ml.Classifier, error) {
	if err := t.validateBins(); err != nil {
		return nil, err
	}
	if err := ml.ValidateSamples(samples, true); err != nil {
		return nil, err
	}
	rounds := t.Rounds
	if rounds == 0 {
		rounds = 100
	}
	lr := t.LearningRate
	if lr == 0 {
		lr = 0.1
	}
	maxDepth := t.MaxDepth
	if maxDepth == 0 {
		maxDepth = 4
	}
	minLeaf := t.MinSamplesLeaf
	if minLeaf == 0 {
		minLeaf = 5
	}
	sub := t.Subsample
	if sub == 0 {
		sub = 1
	}

	n := len(samples)
	xs := make([][]float64, n)
	ys := make([]float64, n) // {0,1}
	for i := range samples {
		xs[i] = samples[i].X
		ys[i] = float64(samples[i].Y)
	}

	// F0 = log-odds of the base rate.
	pos := 0.0
	for _, y := range ys {
		pos += y
	}
	p0 := clampP(pos / float64(n))
	m := &Model{bias: math.Log(p0 / (1 - p0)), lr: lr}

	f := make([]float64, n) // current raw scores
	for i := range f {
		f[i] = m.bias
	}
	grad := make([]float64, n)
	r := rand.New(rand.NewSource(t.Seed + 7))

	// Histogram engine: the binned matrix depends only on the feature
	// matrix, so it is built once and reused by every boosting round.
	bm, err := matrix.Build(xs, t.Bins)
	if err != nil {
		return nil, fmt.Errorf("gbdt: %w", err)
	}
	weights := make([]int, n)

	for round := 0; round < rounds; round++ {
		// Negative gradient of logistic loss: y − p.
		for i := range grad {
			grad[i] = ys[i] - sigmoid(f[i])
		}
		rowIdx := allIdx(n)
		if sub < 1 {
			k := int(sub * float64(n))
			if k < 2 {
				k = 2
			}
			rowIdx = r.Perm(n)[:k]
		}
		treeCfg := tree.Config{
			MaxDepth:       maxDepth,
			MinSamplesLeaf: minLeaf,
			Seed:           t.Seed + int64(round)*9973,
		}
		for i := range weights {
			weights[i] = 0
		}
		for _, i := range rowIdx {
			weights[i] = 1
		}
		tr := tree.GrowRegressorBinned(bm, grad, weights, treeCfg)

		// Newton leaf values: γ = Σ(y−p) / Σ p(1−p) over leaf members.
		nl := tr.NumLeaves()
		num := make([]float64, nl)
		den := make([]float64, nl)
		for _, i := range rowIdx {
			leaf := tr.Apply(xs[i])
			p := sigmoid(f[i])
			num[leaf] += grad[i]
			den[leaf] += p * (1 - p)
		}
		for leaf := 0; leaf < nl; leaf++ {
			gamma := 0.0
			if den[leaf] > 1e-12 {
				gamma = num[leaf] / den[leaf]
			}
			// Clip extreme Newton steps for numerical stability.
			if gamma > 4 {
				gamma = 4
			} else if gamma < -4 {
				gamma = -4
			}
			tr.SetLeafValue(leaf, gamma)
		}
		m.trees = append(m.trees, tr)
		for i := range f {
			f[i] += lr * tr.Predict(xs[i])
		}
	}
	return m, nil
}

// TrainView implements ml.ViewTrainer: boosting on a zero-copy view
// of a columnar SampleSet. The binned matrix is the *set-wide* one
// (built once per set, cached there — the bin-once contract), so a
// grid-search candidate or CV fold pays only for tree growth: each
// round's subsample is expressed as 0/1 weights on the shared matrix
// with the selected rows handed to the grower in view order, making
// every round identical to boosting on a privately binned subset copy
// in the exactness regime (see internal/ml/matrix). A column sub-view
// restricts split search; trees keep global feature indexes and read
// their rows straight out of the arena.
func (t *Trainer) TrainView(v ml.View) (ml.Classifier, error) {
	if err := t.validateBins(); err != nil {
		return nil, err
	}
	if err := ml.ValidateView(v, true); err != nil {
		return nil, err
	}
	rounds := t.Rounds
	if rounds == 0 {
		rounds = 100
	}
	lr := t.LearningRate
	if lr == 0 {
		lr = 0.1
	}
	maxDepth := t.MaxDepth
	if maxDepth == 0 {
		maxDepth = 4
	}
	minLeaf := t.MinSamplesLeaf
	if minLeaf == 0 {
		minLeaf = 5
	}
	sub := t.Subsample
	if sub == 0 {
		sub = 1
	}

	set := v.Set()
	bm, err := matrix.SharedFromSet(set, t.Bins, 1)
	if err != nil {
		return nil, fmt.Errorf("gbdt: %w", err)
	}
	n := v.Len()
	ysv := make([]float64, n) // view-space {0,1} targets
	pos := 0.0
	for i := 0; i < n; i++ {
		ysv[i] = float64(v.Y(i))
		pos += ysv[i]
	}
	p0 := clampP(pos / float64(n))
	m := &Model{bias: math.Log(p0 / (1 - p0)), lr: lr}

	f := make([]float64, n) // current raw scores, view space
	for i := range f {
		f[i] = m.bias
	}
	grad := make([]float64, n)
	r := rand.New(rand.NewSource(t.Seed + 7))

	// Matrix-space gradient targets, reused across rounds: written only
	// at the selected rows each round, so per-round cost stays O(view).
	// Subsample membership is the rows list itself — every selected row
	// has weight 1, which nil weights expresses without O(set) scratch.
	gradFull := make([]float64, set.Len())
	mark := make([]bool, n)
	rows := make([]int, 0, n)

	for round := 0; round < rounds; round++ {
		for i := range grad {
			grad[i] = ysv[i] - sigmoid(f[i])
		}
		rowIdx := allIdx(n)
		if sub < 1 {
			k := int(sub * float64(n))
			if k < 2 {
				k = 2
			}
			rowIdx = r.Perm(n)[:k]
		}
		for _, p := range rowIdx {
			mark[p] = true
		}
		rows = rows[:0]
		for p := 0; p < n; p++ {
			if mark[p] {
				gi := int(v.RowIndex(p))
				rows = append(rows, gi)
				gradFull[gi] = grad[p]
			}
		}
		tr := tree.GrowRegressorBinnedView(bm, gradFull, nil, rows, v.Cols(), tree.Config{
			MaxDepth:       maxDepth,
			MinSamplesLeaf: minLeaf,
			Seed:           t.Seed + int64(round)*9973,
		})
		for _, p := range rowIdx {
			mark[p] = false
		}

		// Newton leaf values, iterated in subsample order exactly as the
		// slice engine does.
		nl := tr.NumLeaves()
		num := make([]float64, nl)
		den := make([]float64, nl)
		for _, p := range rowIdx {
			leaf := tr.Apply(v.Row(p))
			pp := sigmoid(f[p])
			num[leaf] += grad[p]
			den[leaf] += pp * (1 - pp)
		}
		for leaf := 0; leaf < nl; leaf++ {
			gamma := 0.0
			if den[leaf] > 1e-12 {
				gamma = num[leaf] / den[leaf]
			}
			if gamma > 4 {
				gamma = 4
			} else if gamma < -4 {
				gamma = -4
			}
			tr.SetLeafValue(leaf, gamma)
		}
		m.trees = append(m.trees, tr)
		for i := range f {
			f[i] += lr * tr.Predict(v.Row(i))
		}
	}
	return m, nil
}

func (t *Trainer) validateBins() error {
	if t.Bins < 0 {
		return fmt.Errorf("gbdt: Bins %d must be ≥ 0", t.Bins)
	}
	return nil
}

// Model is a fitted gradient-boosted ensemble.
type Model struct {
	bias  float64
	lr    float64
	trees []*tree.Regressor

	// flat is the compiled batch inference form, built lazily on the
	// first batch call so training and Import stay cheap; models
	// reconstructed by modelio therefore rebuild it automatically.
	flatOnce sync.Once
	flat     *predict.Ensemble
}

// RawScore returns the additive log-odds score of x.
func (m *Model) RawScore(x []float64) float64 {
	s := m.bias
	for _, t := range m.trees {
		s += m.lr * t.Predict(x)
	}
	return s
}

// PredictProba implements ml.Classifier.
func (m *Model) PredictProba(x []float64) float64 { return sigmoid(m.RawScore(x)) }

// flatten compiles (once) the flattened inference arena. Compilation
// from a fitted model's own trees cannot fail; a nil return covers
// defensive failure.
func (m *Model) flatten() *predict.Ensemble {
	m.flatOnce.Do(func() {
		exported := make([]tree.Exported, len(m.trees))
		for i, t := range m.trees {
			exported[i] = t.Export()
		}
		if e, err := predict.CompileGBDT(exported, m.bias, m.lr); err == nil {
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

// Rounds returns the number of boosted trees.
func (m *Model) Rounds() int { return len(m.trees) }

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func clampP(p float64) float64 {
	const eps = 1e-6
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Exported is the ensemble's serialisation form.
type Exported struct {
	Bias         float64
	LearningRate float64
	Trees        []tree.Exported
}

// Export returns the model's serialisation form.
func (m *Model) Export() Exported {
	e := Exported{Bias: m.bias, LearningRate: m.lr, Trees: make([]tree.Exported, len(m.trees))}
	for i, t := range m.trees {
		e.Trees[i] = t.Export()
	}
	return e
}

// Import reconstructs an ensemble from its serialisation form.
func Import(e Exported) (*Model, error) {
	if e.LearningRate <= 0 {
		return nil, fmt.Errorf("gbdt: non-positive learning rate in export")
	}
	m := &Model{bias: e.Bias, lr: e.LearningRate, trees: make([]*tree.Regressor, len(e.Trees))}
	for i, te := range e.Trees {
		t, err := tree.ImportRegressor(te)
		if err != nil {
			return nil, fmt.Errorf("gbdt: tree %d: %w", i, err)
		}
		m.trees[i] = t
	}
	return m, nil
}
