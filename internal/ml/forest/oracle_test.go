package forest

import (
	"math/rand"

	"repro/internal/ml"
	"repro/internal/ml/tree"
	"repro/internal/parallel"
)

// trainExact is the exact sort-based ensemble loop the histogram engine
// is pinned to: Train's defaults and per-tree seeds, with each
// bootstrap as row copies and split search by sorting the raw matrix
// (tree.GrowClassifier).
func trainExact(t *Trainer, samples []ml.Sample) (*Model, error) {
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
	master := rand.New(rand.NewSource(t.Seed + 101))
	seeds := make([]int64, nTrees)
	for i := range seeds {
		seeds[i] = master.Int63()
	}
	m := &Model{trees: make([]*tree.Classifier, nTrees)}
	if err := parallel.Do(nTrees, t.Parallelism, func(ti int) error {
		r := rand.New(rand.NewSource(seeds[ti]))
		bootXs := make([][]float64, len(xs))
		bootYs := make([]float64, len(xs))
		for i := range bootXs {
			j := r.Intn(len(xs))
			bootXs[i] = xs[j]
			bootYs[i] = ys[j]
		}
		m.trees[ti] = tree.GrowClassifier(bootXs, bootYs, tree.Config{
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
