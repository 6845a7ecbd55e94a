// Package ml defines the shared sample, classifier, and trainer types
// used by every learning algorithm in the repository. The concrete
// algorithms live in subpackages (bayes, svm, tree, forest, gbdt, nn)
// and are all stdlib-only, from-scratch implementations.
package ml

import (
	"fmt"
	"sort"
)

// Sample is one labelled observation: a dense feature vector plus the
// binary health label.
type Sample struct {
	// X is the feature vector; all samples in a set share one length.
	X []float64
	// Y is the label: 1 for faulty (positive), 0 for healthy.
	Y int
	// SN identifies the drive the sample came from, for drive-level
	// aggregation and leakage-free splitting.
	SN string
	// Day is the observation day, for time-based segmentation.
	Day int
}

// Classifier scores feature vectors.
type Classifier interface {
	// PredictProba returns the estimated probability that x is a
	// positive (faulty) sample, in [0, 1].
	PredictProba(x []float64) float64
}

// Predict applies the conventional 0.5 threshold to c's probability.
func Predict(c Classifier, x []float64) int {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// Trainer builds a classifier from labelled samples.
type Trainer interface {
	// Train fits a model. Implementations must not retain or mutate
	// the samples slice or the vectors inside it.
	Train(samples []Sample) (Classifier, error)
	// Name identifies the algorithm (e.g. "RF", "GBDT").
	Name() string
}

// ValidateSamples checks that samples form a consistent training set:
// non-empty, uniform feature width, labels in {0, 1}, and at least one
// sample of each class when requireBothClasses is set.
func ValidateSamples(samples []Sample, requireBothClasses bool) error {
	if len(samples) == 0 {
		return fmt.Errorf("ml: empty sample set")
	}
	width := len(samples[0].X)
	if width == 0 {
		return fmt.Errorf("ml: zero-width feature vectors")
	}
	var pos, neg int
	for i := range samples {
		if len(samples[i].X) != width {
			return fmt.Errorf("ml: sample %d has width %d, want %d", i, len(samples[i].X), width)
		}
		switch samples[i].Y {
		case 0:
			neg++
		case 1:
			pos++
		default:
			return fmt.Errorf("ml: sample %d has label %d, want 0 or 1", i, samples[i].Y)
		}
	}
	if requireBothClasses && (pos == 0 || neg == 0) {
		return fmt.Errorf("ml: need both classes, have %d positive and %d negative", pos, neg)
	}
	return nil
}

// ClassCounts returns the number of negative and positive samples.
func ClassCounts(samples []Sample) (neg, pos int) {
	for i := range samples {
		if samples[i].Y == 1 {
			pos++
		} else {
			neg++
		}
	}
	return neg, pos
}

// SortByDay orders samples chronologically (stable on equal days), as
// required by the time-series segmentation and cross-validation.
func SortByDay(samples []Sample) {
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Day < samples[j].Day })
}

// CloneVectors deep-copies the feature vectors of samples, for trainers
// that need to mutate their inputs (e.g. in-place scaling).
func CloneVectors(samples []Sample) []Sample {
	out := make([]Sample, len(samples))
	for i := range samples {
		out[i] = samples[i]
		out[i].X = append([]float64(nil), samples[i].X...)
	}
	return out
}
