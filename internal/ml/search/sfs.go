package search

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/parallel"
)

// SFSStep records the state after adding one feature during sequential
// forward selection.
type SFSStep struct {
	// FeatureIndex is the selected feature's index in the full vector.
	FeatureIndex int
	// FeatureName is its human-readable name.
	FeatureName string
	// TPR, FPR, AUC are the validation metrics of the model trained on
	// the subset selected so far.
	TPR float64
	FPR float64
	AUC float64
}

// SFSResult is the outcome of a forward-selection run.
type SFSResult struct {
	// Steps is the selection trajectory, one entry per added feature
	// (the series behind the paper's Fig. 17).
	Steps []SFSStep
	// Selected is the chosen feature index subset, in selection order.
	Selected []int
	// Names are the chosen features' names.
	Names []string
}

// subsetScore is one candidate subset's validation result.
type subsetScore struct {
	auc float64
	cm  metrics.Confusion
}

// scoreSubsetView trains on one candidate subset and scores the
// validation rows once, deriving both the AUC and the 0.5-threshold
// confusion matrix from a single prediction pass. The subset is a
// *column* sub-view of the shared arena: a ViewTrainer trains on
// row-masked, column-masked views of the set-wide binned matrix
// (bin-once, no re-extraction) and its model indexes features
// globally, so validation rows are scored straight out of the arena;
// other trainers fall back to a masked materialisation.
func scoreSubsetView(trainer ml.Trainer, train, val ml.View, subset []int) (subsetScore, error) {
	sub := train.WithCols(subset)
	var clf ml.Classifier
	var err error
	vt, fullWidth := trainer.(ml.ViewTrainer)
	if fullWidth {
		clf, err = vt.TrainView(sub)
	} else {
		clf, err = trainer.Train(sub.Materialize())
	}
	if err != nil {
		return subsetScore{}, err
	}
	n := val.Len()
	scores := make([]float64, n)
	labels := make([]int, n)
	var masked []float64
	if !fullWidth {
		masked = make([]float64, len(subset))
	}
	var cm metrics.Confusion
	for i := 0; i < n; i++ {
		x := val.Row(i)
		if !fullWidth {
			for j, c := range subset {
				masked[j] = x[c]
			}
			x = masked
		}
		scores[i] = clf.PredictProba(x)
		labels[i] = val.Y(i)
		pred := 0
		if scores[i] >= 0.5 {
			pred = 1
		}
		cm.Add(pred, labels[i])
	}
	return subsetScore{auc: metrics.AUC(metrics.ROCFromScores(scores, labels)), cm: cm}, nil
}

// ForwardSelectSet implements the sequential forward selection
// algorithm the paper cites (Whitney 1971) on zero-copy SampleSet
// views: starting from the empty subset, it greedily adds the feature
// whose addition maximises validation AUC, stopping when no candidate
// improves it by more than minGain or when maxFeatures is reached
// (0 = no limit). Every candidate subset trains on a column sub-view
// of the same binned arena instead of a masked copy of train and
// validation. Each step's candidates train and score on workers
// goroutines (0 = GOMAXPROCS, 1 = serial); ties break toward the
// lowest feature index, so the trajectory is identical at any worker
// count.
func ForwardSelectSet(trainer ml.Trainer, train, val ml.View, names []string, maxFeatures int, minGain float64, workers int) (*SFSResult, error) {
	if err := ml.ValidateView(train, true); err != nil {
		return nil, fmt.Errorf("search: train: %w", err)
	}
	if err := ml.ValidateView(val, true); err != nil {
		return nil, fmt.Errorf("search: val: %w", err)
	}
	width := train.Width()
	if len(names) != width {
		return nil, fmt.Errorf("search: %d names for width %d", len(names), width)
	}
	if maxFeatures <= 0 || maxFeatures > width {
		maxFeatures = width
	}

	res := &SFSResult{}
	inSubset := make([]bool, width)
	bestAUC := 0.0

	for len(res.Selected) < maxFeatures {
		cands := make([]int, 0, width-len(res.Selected))
		for f := 0; f < width; f++ {
			if !inSubset[f] {
				cands = append(cands, f)
			}
		}
		if len(cands) == 0 {
			break
		}
		scored, err := parallel.Map(len(cands), workers, func(i int) (subsetScore, error) {
			subset := append(append(make([]int, 0, len(res.Selected)+1), res.Selected...), cands[i])
			s, err := scoreSubsetView(trainer, train, val, subset)
			if err != nil {
				return subsetScore{}, fmt.Errorf("search: training with %v: %w", subset, err)
			}
			return s, nil
		})
		if err != nil {
			return nil, err
		}
		best := 0
		for i := 1; i < len(scored); i++ {
			if scored[i].auc > scored[best].auc {
				best = i
			}
		}
		if scored[best].auc <= bestAUC+minGain {
			break
		}
		bestAUC = scored[best].auc
		f := cands[best]
		inSubset[f] = true
		res.Selected = append(res.Selected, f)
		res.Names = append(res.Names, names[f])
		res.Steps = append(res.Steps, SFSStep{
			FeatureIndex: f,
			FeatureName:  names[f],
			TPR:          scored[best].cm.TPR(),
			FPR:          scored[best].cm.FPR(),
			AUC:          scored[best].auc,
		})
	}
	if len(res.Selected) == 0 {
		return nil, fmt.Errorf("search: forward selection selected nothing")
	}
	return res, nil
}
