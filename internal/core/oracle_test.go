package core

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/sampling"
)

// calibrateThreshold is the []ml.Sample calibration that
// calibrateThresholdView is pinned against: every fold's parts are
// sample slices, each fold model trains through Trainer.Train (binning
// per fold for the tree ensembles), and the pooled score and label
// buffers grow by append.
func calibrateThreshold(trainer ml.Trainer, trainFull []ml.Sample, cfg Config) (float64, error) {
	folds, err := timeSeriesCV(trainFull, cfg.CVFolds)
	if err != nil {
		return 0, err
	}
	var scores []float64
	var labels []int
	for _, fold := range folds {
		tr, err := underSample(fold.Train, cfg.NegativeRatio, cfg.Seed)
		if err != nil {
			return 0, err
		}
		if !bothClasses(tr) || !bothClasses(fold.Val) {
			continue
		}
		clf, err := trainer.Train(tr)
		if err != nil {
			return 0, err
		}
		scores = append(scores, ml.BatchScores(clf, fold.Val, cfg.Workers)...)
		for i := range fold.Val {
			labels = append(labels, fold.Val[i].Y)
		}
	}
	if len(scores) == 0 {
		return 0, fmt.Errorf("core: no usable calibration folds")
	}
	return pickThreshold(scores, labels), nil
}

// sliceFold is one time-series CV iteration as sample slices.
type sliceFold struct{ Train, Val []ml.Sample }

// timeSeriesCV materialises TimeSeriesCVView's folds of samples.
func timeSeriesCV(samples []ml.Sample, k int) ([]sliceFold, error) {
	set, err := ml.FromSamples(samples)
	if err != nil {
		return nil, err
	}
	views, err := sampling.TimeSeriesCVView(set.All(), k)
	if err != nil {
		return nil, err
	}
	folds := make([]sliceFold, len(views))
	for i, v := range views {
		folds[i] = sliceFold{Train: v.Train.Materialize(), Val: v.Val.Materialize()}
	}
	return folds, nil
}

// underSample materialises UnderSampleView's selection of samples.
func underSample(samples []ml.Sample, ratio float64, seed int64) ([]ml.Sample, error) {
	set, err := ml.FromSamples(samples)
	if err != nil {
		return nil, err
	}
	v, err := sampling.UnderSampleView(set.All(), ratio, seed)
	if err != nil {
		return nil, err
	}
	return v.Materialize(), nil
}

func bothClasses(samples []ml.Sample) bool {
	neg, pos := ml.ClassCounts(samples)
	return neg > 0 && pos > 0
}
