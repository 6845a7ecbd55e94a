package gbdt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
)

func moons(n int, seed int64) []ml.Sample {
	r := rand.New(rand.NewSource(seed))
	var out []ml.Sample
	for i := 0; i < n; i++ {
		t := r.Float64() * math.Pi
		noise := func() float64 { return 0.15 * r.NormFloat64() }
		out = append(out,
			ml.Sample{X: []float64{math.Cos(t) + noise(), math.Sin(t) + noise()}, Y: 0},
			ml.Sample{X: []float64{1 - math.Cos(t) + noise(), 0.5 - math.Sin(t) + noise()}, Y: 1},
		)
	}
	return out
}

func TestGBDTAccuracy(t *testing.T) {
	train := moons(500, 1)
	test := moons(300, 2)
	clf, err := (&Trainer{Rounds: 80, Seed: 1}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.95 {
		t.Fatalf("moons accuracy = %g", acc)
	}
}

func TestMoreRoundsReduceTrainingLoss(t *testing.T) {
	train := moons(300, 3)
	logloss := func(clf ml.Classifier) float64 {
		var sum float64
		for _, s := range train {
			p := clf.PredictProba(s.X)
			p = math.Min(math.Max(p, 1e-9), 1-1e-9)
			if s.Y == 1 {
				sum -= math.Log(p)
			} else {
				sum -= math.Log(1 - p)
			}
		}
		return sum / float64(len(train))
	}
	few, err := (&Trainer{Rounds: 5, Seed: 1}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	many, err := (&Trainer{Rounds: 100, Seed: 1}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if logloss(many) >= logloss(few) {
		t.Fatalf("loss did not decrease: %g → %g", logloss(few), logloss(many))
	}
}

func TestBiasMatchesBaseRate(t *testing.T) {
	// With zero-information features, the prediction should collapse to
	// the base rate.
	var train []ml.Sample
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 800; i++ {
		y := 0
		if i%4 == 0 { // 25% positive
			y = 1
		}
		train = append(train, ml.Sample{X: []float64{r.Float64()}, Y: y})
	}
	clf, err := (&Trainer{Rounds: 10, Seed: 1}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 100; i++ {
		sum += clf.PredictProba([]float64{r.Float64()})
	}
	if mean := sum / 100; math.Abs(mean-0.25) > 0.12 {
		t.Fatalf("mean probability %g far from base rate 0.25", mean)
	}
}

func TestSubsampleStillLearns(t *testing.T) {
	train := moons(500, 5)
	clf, err := (&Trainer{Rounds: 80, Subsample: 0.6, Seed: 1}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range train {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(train)); acc < 0.93 {
		t.Fatalf("stochastic GBDT accuracy = %g", acc)
	}
}

func TestRoundsAccessor(t *testing.T) {
	clf, err := (&Trainer{Rounds: 17, Seed: 1}).Train(moons(100, 6))
	if err != nil {
		t.Fatal(err)
	}
	if got := clf.(*Model).Rounds(); got != 17 {
		t.Fatalf("Rounds = %d, want 17", got)
	}
}

func TestProbabilityBounds(t *testing.T) {
	clf, err := (&Trainer{Rounds: 40, Seed: 1}).Train(moons(200, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range moons(200, 8) {
		p := clf.PredictProba(s.X)
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("probability %g out of bounds", p)
		}
	}
}

func TestDeterministic(t *testing.T) {
	train := moons(200, 9)
	a, _ := (&Trainer{Rounds: 20, Subsample: 0.7, Seed: 3}).Train(train)
	b, _ := (&Trainer{Rounds: 20, Subsample: 0.7, Seed: 3}).Train(train)
	for _, s := range moons(50, 10) {
		if a.PredictProba(s.X) != b.PredictProba(s.X) {
			t.Fatal("same seed produced different ensembles")
		}
	}
}

func TestExactFallbackStillLearns(t *testing.T) {
	// The exact sort-based oracle the histogram engine is pinned to
	// must itself learn.
	train := moons(500, 40)
	test := moons(300, 41)
	clf, err := trainExact(&Trainer{Rounds: 80, Seed: 1}, train)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range test {
		if ml.Predict(clf, s.X) == s.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.95 {
		t.Fatalf("exact-engine moons accuracy = %g", acc)
	}
}

func TestHistogramMatchesExactOnDiscreteFeatures(t *testing.T) {
	// On features with fewer distinct values than bins the histogram
	// split search evaluates the same candidates at the same
	// thresholds as the exact oracle, so the boosted ensembles agree
	// score for score.
	r := rand.New(rand.NewSource(42))
	var train []ml.Sample
	for i := 0; i < 400; i++ {
		x := float64(r.Intn(15))
		y := 0
		if x > 7 {
			y = 1
		}
		train = append(train, ml.Sample{X: []float64{x, float64(r.Intn(4))}, Y: y})
	}
	hist, err := (&Trainer{Rounds: 30, Seed: 5, Subsample: 0.8}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := trainExact(&Trainer{Rounds: 30, Seed: 5, Subsample: 0.8}, train)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		x := []float64{float64(r.Intn(15)), float64(r.Intn(4))}
		if hist.PredictProba(x) != exact.PredictProba(x) {
			t.Fatalf("engines disagree at %v: %g vs %g", x, hist.PredictProba(x), exact.PredictProba(x))
		}
	}
}

func TestRejectsNaNFeatures(t *testing.T) {
	train := moons(50, 43)
	train[3].X[0] = math.NaN()
	if _, err := (&Trainer{Rounds: 5, Seed: 1}).Train(train); err == nil {
		t.Fatal("NaN features accepted by the histogram engine")
	}
}

func TestRequiresBothClasses(t *testing.T) {
	if _, err := (&Trainer{}).Train([]ml.Sample{{X: []float64{1}, Y: 1}}); err == nil {
		t.Fatal("single-class training accepted")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	train := moons(150, 30)
	clf, err := (&Trainer{Rounds: 20, Seed: 1}).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	restored, err := Import(m.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range moons(40, 31) {
		if restored.PredictProba(s.X) != m.PredictProba(s.X) {
			t.Fatal("round trip changed predictions")
		}
	}
	if restored.Rounds() != m.Rounds() {
		t.Fatal("round count changed")
	}
}

func TestImportRejectsCorrupt(t *testing.T) {
	if _, err := Import(Exported{LearningRate: 0}); err == nil {
		t.Error("zero learning rate accepted")
	}
}

func TestGBDTBatchMatchesPerRowExactly(t *testing.T) {
	clf, err := (&Trainer{Rounds: 40, MaxDepth: 4, Subsample: 0.8, Seed: 1}).Train(moons(400, 50))
	if err != nil {
		t.Fatal(err)
	}
	m := clf.(*Model)
	probe := moons(350, 51) // 700 rows straddle the batch kernel's block size
	xs := make([][]float64, len(probe))
	want := make([]float64, len(probe))
	for i := range probe {
		xs[i] = probe[i].X
		want[i] = m.PredictProba(probe[i].X)
	}
	for _, workers := range []int{1, 3, 0} {
		out := make([]float64, len(xs))
		m.PredictProbaBatch(xs, out, workers)
		for i := range out {
			if out[i] != want[i] { // bit-exact, not approximate
				t.Fatalf("workers=%d row %d: batch %v != per-row %v", workers, i, out[i], want[i])
			}
		}
	}
	var _ ml.BatchClassifier = m
	scores := ml.BatchScores(m, probe, 0)
	for i := range scores {
		if scores[i] != want[i] {
			t.Fatalf("BatchScores row %d: %v != %v", i, scores[i], want[i])
		}
	}
}
