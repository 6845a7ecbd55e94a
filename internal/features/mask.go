package features

import "repro/internal/ml"

// Mask restricts samples to the feature indexes in keep, in order —
// the projection primitive behind the baselines' feature families.
func Mask(samples []ml.Sample, keep []int) []ml.Sample {
	out := make([]ml.Sample, len(samples))
	for i := range samples {
		out[i] = samples[i]
		x := make([]float64, len(keep))
		for j, idx := range keep {
			x[j] = samples[i].X[idx]
		}
		out[i].X = x
	}
	return out
}
