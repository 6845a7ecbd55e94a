package gbdt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/sampling"
)

// discreteData draws features from small integer alphabets so the bin
// budget covers every distinct value (the exactness regime — set-wide
// binning plus row masks equals privately re-binning each subset).
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

// TestGBDTTrainViewMatchesTrainOnFullSet: on the full set the view
// path and slice path bin the same input, so boosting — including the
// per-round Newton updates — must be bit-exact even with subsampling.
func TestGBDTTrainViewMatchesTrainOnFullSet(t *testing.T) {
	samples := discreteData(500, 3)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []float64{1, 0.7} {
		tr := &Trainer{Rounds: 25, MaxDepth: 4, Seed: 7, Subsample: sub}
		sliceClf, err := tr.Train(samples)
		if err != nil {
			t.Fatal(err)
		}
		viewClf, err := tr.TrainView(set.All())
		if err != nil {
			t.Fatal(err)
		}
		assertSamePredictions(t, fmt.Sprintf("subsample=%g", sub), sliceClf, viewClf, discreteData(250, 4))
	}
}

// TestGBDTTrainViewSubsetMatchesSliceSubset trains on an under-sampled
// row subset both ways on discrete data.
func TestGBDTTrainViewSubsetMatchesSliceSubset(t *testing.T) {
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
		tr := &Trainer{Rounds: 20, MaxDepth: 4, Seed: seed + 31, Subsample: 0.8}
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

// TestGBDTTrainViewColsMatchesMaskedSlice trains on a feature sub-view
// and on a hand-masked copy; probabilities must agree bit-for-bit.
func TestGBDTTrainViewColsMatchesMaskedSlice(t *testing.T) {
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
	tr := &Trainer{Rounds: 20, MaxDepth: 4, Seed: 13}
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

// TestGBDTTrainViewExactFallback asserts the exact-engine fallback is
// gone: a negative bin budget is an error on both training paths.
func TestGBDTTrainViewExactFallback(t *testing.T) {
	samples := discreteData(50, 14)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Rounds: 3, Seed: 5, Bins: -1}
	if _, err := tr.Train(samples); err == nil {
		t.Fatal("Train accepted Bins -1")
	}
	if _, err := tr.TrainView(set.All()); err == nil {
		t.Fatal("TrainView accepted Bins -1")
	}
}
