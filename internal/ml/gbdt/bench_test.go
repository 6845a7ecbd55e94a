package gbdt

import (
	"testing"

	"repro/internal/ml"
)

func BenchmarkGBDTTrain(b *testing.B) {
	train := moons(1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&Trainer{Rounds: 60, MaxDepth: 4, Subsample: 0.8, Seed: 1}).Train(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGBDTPredict(b *testing.B) {
	train := moons(1000, 1)
	clf, err := (&Trainer{Rounds: 60, MaxDepth: 4, Seed: 1}).Train(train)
	if err != nil {
		b.Fatal(err)
	}
	x := train[0].X
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf.PredictProba(x)
	}
}

// perRowOnly hides the model's BatchClassifier implementation so
// benchmarks can measure the legacy per-row interface path.
type perRowOnly struct{ ml.Classifier }

// BenchmarkGBDTScoreBatch measures fleet-style scoring through the
// flattened batch kernel at GOMAXPROCS workers.
func BenchmarkGBDTScoreBatch(b *testing.B) {
	clf, err := (&Trainer{Rounds: 100, MaxDepth: 4, Seed: 1}).Train(moons(500, 1))
	if err != nil {
		b.Fatal(err)
	}
	probe := moons(5000, 2)
	clf.(*Model).flatten() // compile outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.BatchScores(clf, probe, 0)
	}
}

// BenchmarkGBDTScorePerRow is the same workload through the per-row
// interface path (batch detection suppressed), the speedup denominator.
func BenchmarkGBDTScorePerRow(b *testing.B) {
	clf, err := (&Trainer{Rounds: 100, MaxDepth: 4, Seed: 1}).Train(moons(500, 1))
	if err != nil {
		b.Fatal(err)
	}
	probe := moons(5000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ml.BatchScores(perRowOnly{clf}, probe, 0)
	}
}
