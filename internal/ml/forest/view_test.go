package forest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/sampling"
)

// discreteData draws features from small integer alphabets so the bin
// budget covers every distinct value — the exactness regime in which
// set-wide binning plus row masks is provably identical to privately
// re-binning each subset.
func discreteData(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	out := make([]ml.Sample, n)
	for i := range out {
		a := float64(r.Intn(12))
		b := float64(r.Intn(8))
		c := float64(r.Intn(5))
		d := float64(r.Intn(3))
		y := 0
		if a+b > 12 || (c > 2 && a > 6) {
			y = 1
		}
		if r.Float64() < 0.08 {
			y = 1 - y
		}
		out[i] = ml.Sample{X: []float64{a, b, c, d}, Y: y, Day: i / 7, SN: fmt.Sprintf("s%d", i%37)}
	}
	return out
}

func assertSamePredictions(t *testing.T, name string, a, b ml.Classifier, probes []ml.Sample) {
	t.Helper()
	for i := range probes {
		pa := a.PredictProba(probes[i].X)
		pb := b.PredictProba(probes[i].X)
		if pa != pb {
			t.Fatalf("%s: probe %d: %v vs %v", name, i, pa, pb)
		}
	}
}

// TestForestTrainViewMatchesTrainOnFullSet pins the strongest claim:
// on the full set the view path shares the slice path's binning input,
// so the two are bit-exact even with continuous features.
func TestForestTrainViewMatchesTrainOnFullSet(t *testing.T) {
	samples := rings(500, 3)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Trees: 25, MaxDepth: 8, Seed: 7}
	sliceClf, err := tr.Train(samples)
	if err != nil {
		t.Fatal(err)
	}
	viewClf, err := tr.TrainView(set.All())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, "full set", sliceClf, viewClf, rings(300, 4))
}

// TestForestTrainViewSubsetMatchesSliceSubset trains on an
// under-sampled row subset both ways: the slice path re-bins the
// subset privately, the view path row-masks the set-wide matrix.
// On discrete data the fitted forests must be identical.
func TestForestTrainViewSubsetMatchesSliceSubset(t *testing.T) {
	samples := discreteData(700, 5)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 9} {
		subView, err := sampling.UnderSampleView(set.All(), 1.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		subSlice := subView.Materialize()
		tr := &Trainer{Trees: 20, MaxDepth: 7, Seed: seed + 31}
		sliceClf, err := tr.Train(subSlice)
		if err != nil {
			t.Fatal(err)
		}
		viewClf, err := tr.TrainView(subView)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePredictions(t, fmt.Sprintf("seed=%d", seed), sliceClf, viewClf, discreteData(300, seed+77))
	}
}

// TestForestTrainViewWorkerInvariant asserts the view path keeps the
// repository's parallelism contract: results are identical at any
// Parallelism setting.
func TestForestTrainViewWorkerInvariant(t *testing.T) {
	set, err := ml.FromSamples(discreteData(500, 6))
	if err != nil {
		t.Fatal(err)
	}
	v, err := sampling.UnderSampleView(set.All(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := (&Trainer{Trees: 15, MaxDepth: 6, Seed: 2, Parallelism: 1}).TrainView(v)
	if err != nil {
		t.Fatal(err)
	}
	probes := discreteData(200, 8)
	for _, workers := range []int{0, 2, 5} {
		clf, err := (&Trainer{Trees: 15, MaxDepth: 6, Seed: 2, Parallelism: workers}).TrainView(v)
		if err != nil {
			t.Fatal(err)
		}
		assertSamePredictions(t, fmt.Sprintf("workers=%d", workers), base, clf, probes)
	}
}

// TestForestTrainViewColsMatchesMaskedSlice trains on a feature
// sub-view and on a hand-masked copy. The view model predicts on
// full-width rows (global feature indexes); the masked model predicts
// on masked rows. Their probabilities must agree bit-for-bit.
func TestForestTrainViewColsMatchesMaskedSlice(t *testing.T) {
	samples := discreteData(600, 11)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	subset := []int{2, 0, 3}
	masked := make([]ml.Sample, len(samples))
	for i := range samples {
		x := make([]float64, len(subset))
		for j, c := range subset {
			x[j] = samples[i].X[c]
		}
		masked[i] = ml.Sample{X: x, Y: samples[i].Y, Day: samples[i].Day, SN: samples[i].SN}
	}
	tr := &Trainer{Trees: 20, MaxDepth: 7, Seed: 13}
	maskClf, err := tr.Train(masked)
	if err != nil {
		t.Fatal(err)
	}
	viewClf, err := tr.TrainView(set.All().WithCols(subset))
	if err != nil {
		t.Fatal(err)
	}
	probes := discreteData(250, 21)
	for i := range probes {
		mx := make([]float64, len(subset))
		for j, c := range subset {
			mx[j] = probes[i].X[c]
		}
		pm := maskClf.PredictProba(mx)
		pv := viewClf.PredictProba(probes[i].X)
		if pm != pv {
			t.Fatalf("probe %d: masked %v vs view %v", i, pm, pv)
		}
	}
}

// TestForestTrainViewExactFallback asserts the exact-engine fallback is
// gone: a negative bin budget is an error on both training paths.
func TestForestTrainViewExactFallback(t *testing.T) {
	samples := discreteData(50, 14)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Trees: 3, Seed: 5, Bins: -1}
	if _, err := tr.Train(samples); err == nil {
		t.Fatal("Train accepted Bins -1")
	}
	if _, err := tr.TrainView(set.All()); err == nil {
		t.Fatal("TrainView accepted Bins -1")
	}
}

// TestForestTrainViewRejectsWindowedSet asserts the bin-once path
// refuses a windowed (sequence) set instead of binning its arena.
func TestForestTrainViewRejectsWindowedSet(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	set, err := ml.NewWindowedSampleSet(4, x, []int{0, 2, 4}, []int8{0, 1, 0}, []int32{1, 2, 3}, []string{"a", "a", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Trainer{Trees: 2, Seed: 1}).TrainView(set.All()); err == nil {
		t.Fatal("TrainView accepted a windowed set")
	}
}
