package search

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// BenchmarkGridSearchWorkers compares the serial (combo × fold) sweep
// of GridSearchSet against the full fan-out.
func BenchmarkGridSearchWorkers(b *testing.B) {
	samples := setView(b, trendData(600, 31))
	factory := func(params map[string]float64) ml.Trainer {
		return &tree.Trainer{Config: tree.Config{
			MaxDepth:       int(params["depth"]),
			MinSamplesLeaf: int(params["leaf"]),
		}}
	}
	grid := Grid{"depth": {2, 4, 6}, "leaf": {5, 10}}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := GridSearchSet(factory, grid, samples, 3, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
