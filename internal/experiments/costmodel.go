package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml/metrics"
)

// CostRegime is one operational cost assumption.
type CostRegime struct {
	Name  string
	Model metrics.CostModel
}

// CostRow is the optimal operating point under one regime.
type CostRow struct {
	Regime string
	// Threshold is the cost-optimal decision threshold on the vendor-I
	// ROC; +Inf means "never flag".
	Threshold float64
	TPR       float64
	FPR       float64
	// CostPerDrive is the expected cost per test sample at the optimum,
	// in the regime's (arbitrary) cost units.
	CostPerDrive float64
	// DefaultCost is the cost at the pipeline's calibrated threshold,
	// for comparison.
	DefaultCost float64
}

// CostResult reproduces the economics behind the paper's motivation
// (downtime at $8,851/min; misclassification causing "additional data
// migration, unnecessary service interruption, and latent economic
// losses"): the same trained model yields different optimal operating
// points as the miss/false-alarm cost ratio moves.
type CostResult struct {
	Rows []CostRow
}

// CostStudy trains the standard vendor-I model once and sweeps three
// cost regimes over its test ROC.
func (c *Context) CostStudy() (*CostResult, error) {
	_, testView, p, err := c.SplitSet(primaryVendor, features.GroupSFWB)
	if err != nil {
		return nil, err
	}
	test := testView.Materialize()
	m, _, err := core.Train(p)
	if err != nil {
		return nil, err
	}

	scores := make([]float64, len(test))
	labels := make([]int, len(test))
	pos, neg := 0, 0
	for i := range test {
		scores[i] = m.Predict(test[i].X)
		labels[i] = test[i].Y
		if test[i].Y == 1 {
			pos++
		} else {
			neg++
		}
	}
	roc := metrics.ROCFromScores(scores, labels)

	regimes := []CostRegime{
		{"consumer (miss = lost photos, 50:1)", metrics.CostModel{MissCost: 50, FalseAlarmCost: 1, TruePositiveCost: 0.5}},
		{"balanced (10:1)", metrics.CostModel{MissCost: 10, FalseAlarmCost: 1, TruePositiveCost: 0.5}},
		{"alarm-averse (2:1)", metrics.CostModel{MissCost: 2, FalseAlarmCost: 1, TruePositiveCost: 0.2}},
	}
	res := &CostResult{}
	for _, reg := range regimes {
		thr, cost, err := reg.Model.OptimalThreshold(roc, pos, neg)
		if err != nil {
			return nil, err
		}
		// Realised confusion at the chosen threshold.
		var cm metrics.Confusion
		var def metrics.Confusion
		for i := range scores {
			pred := 0
			if scores[i] >= thr {
				pred = 1
			}
			cm.Add(pred, labels[i])
			predDef := 0
			if scores[i] >= m.Threshold {
				predDef = 1
			}
			def.Add(predDef, labels[i])
		}
		n := float64(len(test))
		res.Rows = append(res.Rows, CostRow{
			Regime:       reg.Name,
			Threshold:    thr,
			TPR:          cm.TPR(),
			FPR:          cm.FPR(),
			CostPerDrive: cost / n,
			DefaultCost:  reg.Model.Expected(def) / n,
		})
	}
	return res, nil
}

// String renders the study.
func (r *CostResult) String() string {
	t := newTable("Cost-sensitive operating points (SFWB+RF, vendor I)",
		"Regime", "Optimal thr", "TPR", "FPR", "Cost/sample", "Cost @ calibrated thr")
	for _, row := range r.Rows {
		thr := f4(row.Threshold)
		if math.IsInf(row.Threshold, 1) {
			thr = "never flag"
		}
		t.addRow(row.Regime, thr, f4(row.TPR), f4(row.FPR),
			f4(row.CostPerDrive), f4(row.DefaultCost))
	}
	return t.String()
}
