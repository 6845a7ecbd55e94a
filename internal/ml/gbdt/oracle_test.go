package gbdt

import (
	"math"
	"math/rand"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// trainExact is the exact sort-based boosting loop the histogram engine
// is pinned to: Train's defaults, subsampling stream and Newton leaf
// updates, with each round's tree grown by sorting the raw rows of its
// subsample (tree.GrowRegressor).
func trainExact(t *Trainer, samples []ml.Sample) (*Model, error) {
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
		rowXs := make([][]float64, len(rowIdx))
		rowGrad := make([]float64, len(rowIdx))
		for j, i := range rowIdx {
			rowXs[j] = xs[i]
			rowGrad[j] = grad[i]
		}
		tr := tree.GrowRegressor(rowXs, rowGrad, treeCfg)

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
