package search

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/forest"
)

// discreteTrend draws features from small integer alphabets (the
// exactness regime: set-wide binning + row masks ≡ per-subset binning)
// with the signal concentrated in feature 0.
func discreteTrend(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	out := make([]ml.Sample, n)
	for i := range out {
		a := float64(r.Intn(16))
		x := []float64{a, float64(r.Intn(6)), float64(r.Intn(4)), float64(r.Intn(3))}
		y := 0
		if a > 8 {
			y = 1
		}
		if r.Float64() < 0.1 {
			y = 1 - y
		}
		out[i] = ml.Sample{X: x, Y: y, Day: i, SN: "sn"}
	}
	return out
}

func forestFactory(seed int64) Factory {
	return func(params map[string]float64) ml.Trainer {
		return &forest.Trainer{
			Trees:    12,
			MaxDepth: int(params["depth"]),
			Seed:     seed,
		}
	}
}

// TestGridSearchSetMatchesSlice requires the bin-once view sweep to
// reproduce the per-candidate slice sweep's candidates and scores
// exactly, at any worker count.
func TestGridSearchSetMatchesSlice(t *testing.T) {
	samples := discreteTrend(420, 3)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{"depth": {2, 4, 6}}
	want, wantBest, err := GridSearchWorkers(forestFactory(11), grid, samples, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 0, 3} {
		got, gotBest, err := GridSearchSet(forestFactory(11), grid, set.All(), 3, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: candidates = %v, want %v", w, got, want)
		}
		if !reflect.DeepEqual(gotBest, wantBest) {
			t.Fatalf("workers=%d: best = %v, want %v", w, gotBest, wantBest)
		}
	}
}

// TestGridSearchSetFallbackTrainer covers the non-ViewTrainer path:
// candidates materialise their folds (header-only) and must still
// match the slice sweep — here even on continuous features, since the
// fallback trains on exactly the fold's rows.
func TestGridSearchSetFallbackTrainer(t *testing.T) {
	samples := wideTrendData(300, 5, 9)
	set, err := ml.FromSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	grid := Grid{"depth": {1, 3, 5}}
	want, _, err := GridSearchWorkers(treeFactory, grid, samples, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := GridSearchSet(treeFactory, grid, set.All(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("candidates = %v, want %v", got, want)
	}
}

// TestGridSearchSetEmptyGrid mirrors the slice path's error contract:
// a parameter with no candidate values enumerates to nothing.
func TestGridSearchSetEmptyGrid(t *testing.T) {
	set, err := ml.FromSamples(discreteTrend(40, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := GridSearchSet(forestFactory(1), Grid{"depth": {}}, set.All(), 2, 1); err == nil {
		t.Fatal("valueless grid accepted")
	}
}

// TestForwardSelectSetMatchesSlice requires the column-sub-view SFS to
// walk the same greedy trajectory as the masked-copy implementation.
func TestForwardSelectSetMatchesSlice(t *testing.T) {
	train := discreteTrend(400, 5)
	val := discreteTrend(200, 6)
	names := []string{"a", "b", "c", "d"}
	trainer := &forest.Trainer{Trees: 12, MaxDepth: 5, Seed: 3, Parallelism: 1}

	want, err := ForwardSelectWorkers(trainer, train, val, names, 0, 1e-4, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainSet, err := ml.FromSamples(train)
	if err != nil {
		t.Fatal(err)
	}
	valSet, err := ml.FromSamples(val)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 0, 4} {
		got, err := ForwardSelectSet(trainer, trainSet.All(), valSet.All(), names, 0, 1e-4, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: trajectory = %+v, want %+v", w, got, want)
		}
	}
}

// TestForwardSelectSetValidates mirrors the slice path's input checks.
func TestForwardSelectSetValidates(t *testing.T) {
	set, err := ml.FromSamples(discreteTrend(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	trainer := &forest.Trainer{Trees: 4, Seed: 1}
	if _, err := ForwardSelectSet(trainer, set.All(), set.All(), []string{"just-one"}, 0, 0, 1); err == nil {
		t.Fatal("name/width mismatch accepted")
	}
	if _, err := ForwardSelectSet(trainer, set.All().WithRows([]int32{}), set.All(), []string{"a", "b", "c", "d"}, 0, 0, 1); err == nil {
		t.Fatal("empty train view accepted")
	}
}
