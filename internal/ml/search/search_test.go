package search

import (
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// trendData labels samples by feature 0 with noise; feature 1 is pure
// noise. Days are assigned chronologically so TS-CV applies.
func trendData(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	var out []ml.Sample
	for i := 0; i < n; i++ {
		y := 0
		v := r.NormFloat64()
		if v > 0 {
			y = 1
		}
		out = append(out, ml.Sample{
			X:   []float64{v + 0.2*r.NormFloat64(), r.NormFloat64()},
			Y:   y,
			Day: i,
			SN:  "sn",
		})
	}
	return out
}

// setView wraps samples in a SampleSet and returns the view of all rows.
func setView(t testing.TB, samples []ml.Sample) ml.View {
	t.Helper()
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	return set.All()
}

// splitViews returns views of samples[:cut] and samples[cut:].
func splitViews(t testing.TB, samples []ml.Sample, cut int) (train, val ml.View) {
	t.Helper()
	return setView(t, samples[:cut]), setView(t, samples[cut:])
}

func TestEnumerate(t *testing.T) {
	grid := Grid{"a": {1, 2}, "b": {10, 20, 30}}
	combos := enumerate(grid)
	if len(combos) != 6 {
		t.Fatalf("enumerated %d combos, want 6", len(combos))
	}
	seen := make(map[[2]float64]bool)
	for _, c := range combos {
		if len(c) != 2 {
			t.Fatalf("combo %v missing keys", c)
		}
		seen[[2]float64{c["a"], c["b"]}] = true
	}
	if len(seen) != 6 {
		t.Fatal("duplicate combos")
	}
}

func TestEnumerateEmpty(t *testing.T) {
	combos := enumerate(Grid{})
	if len(combos) != 1 || len(combos[0]) != 0 {
		t.Fatalf("empty grid → %v", combos)
	}
}

func TestGridSearchPicksSensibleDepth(t *testing.T) {
	samples := setView(t, trendData(400, 1))
	factory := func(params map[string]float64) ml.Trainer {
		return &tree.Trainer{Config: tree.Config{
			MaxDepth:       int(params["depth"]),
			MinSamplesLeaf: 10,
		}}
	}
	grid := Grid{"depth": {1, 4}}
	candidates, best, err := GridSearchSet(factory, grid, samples, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(candidates) != 2 {
		t.Fatalf("candidates = %d", len(candidates))
	}
	if candidates[0].Score < candidates[1].Score {
		t.Fatal("candidates not sorted best-first")
	}
	if best.Score <= 0.5 {
		t.Fatalf("best score %g is no better than chance", best.Score)
	}
}

func TestGridSearchErrorsOnTinyData(t *testing.T) {
	factory := func(map[string]float64) ml.Trainer { return &tree.Trainer{} }
	if _, _, err := GridSearchSet(factory, Grid{"x": {1}}, setView(t, trendData(3, 2)), 5, 0); err == nil {
		t.Fatal("too-small sample set accepted")
	}
}

func TestForwardSelectFindsInformativeFeature(t *testing.T) {
	train, val := splitViews(t, trendData(600, 3), 400)
	trainer := &tree.Trainer{Config: tree.Config{MaxDepth: 4, MinSamplesLeaf: 10}}
	res, err := ForwardSelectSet(trainer, train, val, []string{"signal", "noise"}, 0, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("nothing selected")
	}
	if res.Selected[0] != 0 {
		t.Fatalf("first selected feature = %q, want the signal", res.Names[0])
	}
	if res.Steps[0].AUC < 0.9 {
		t.Fatalf("signal-only AUC = %g", res.Steps[0].AUC)
	}
}

func TestForwardSelectStopsWithoutGain(t *testing.T) {
	train, val := splitViews(t, trendData(600, 4), 400)
	trainer := &tree.Trainer{Config: tree.Config{MaxDepth: 4, MinSamplesLeaf: 10}}
	// The noise feature cannot add minGain=0.05 of AUC, so selection
	// should stop after the signal.
	res, err := ForwardSelectSet(trainer, train, val, []string{"signal", "noise"}, 0, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("selected %v, want just the signal", res.Names)
	}
}

func TestForwardSelectMaxFeatures(t *testing.T) {
	train, val := splitViews(t, trendData(400, 5), 300)
	trainer := &tree.Trainer{Config: tree.Config{MaxDepth: 4, MinSamplesLeaf: 10}}
	res, err := ForwardSelectSet(trainer, train, val, []string{"a", "b"}, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d features despite maxFeatures=1", len(res.Selected))
	}
}

func TestForwardSelectValidation(t *testing.T) {
	samples := setView(t, trendData(100, 6))
	trainer := &tree.Trainer{}
	if _, err := ForwardSelectSet(trainer, samples, samples, []string{"one"}, 0, 0, 0); err == nil {
		t.Fatal("name/width mismatch accepted")
	}
	onlyPos := setView(t, []ml.Sample{{X: []float64{1, 2}, Y: 1}})
	if _, err := ForwardSelectSet(trainer, onlyPos, samples, []string{"a", "b"}, 0, 0, 0); err == nil {
		t.Fatal("single-class training set accepted")
	}
}
