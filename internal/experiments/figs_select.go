package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ml/forest"
	"repro/internal/ml/search"
	"repro/internal/sampling"
)

// Fig17Result reproduces Fig. 17: the sequential-forward-selection
// trajectory over the SFWB pool. The paper: TPR climbs 0.926 → 0.9818
// and FPR falls 0.023 → 0.0056 as features are added; W_11, W_49,
// W_51, W_161, B_50, B_7A and the SMART error counters matter, while
// Available Spare Threshold is useless.
type Fig17Result struct {
	Steps []search.SFSStep
	// Selected is the final subset in selection order.
	Selected []string
}

// Fig17 runs SFS with the RF trainer on vendor I's SFWB samples. It
// rides the view path: every candidate subset is a column sub-view of
// the once-binned shared arena, so no per-subset masked copies of
// train and test are made.
func (c *Context) Fig17() (*Fig17Result, error) {
	train, test, p, err := c.SplitSet(primaryVendor, features.GroupSFWB)
	if err != nil {
		return nil, err
	}
	train, err = sampling.UnderSampleView(train, p.Config.NegativeRatio, p.Config.Seed)
	if err != nil {
		return nil, err
	}
	// A lighter forest keeps the O(width²) SFS affordable. Candidates
	// already fan out across c.Workers goroutines, so each forest grows
	// serially to avoid oversubscription.
	trainer := &forest.Trainer{Trees: 30, MaxDepth: 10, Seed: p.Config.Seed, Parallelism: 1}
	res, err := search.ForwardSelectSet(trainer, train, test, p.Extractor.Names(), 10, 1e-4, c.Workers)
	if err != nil {
		return nil, err
	}
	return &Fig17Result{Steps: res.Steps, Selected: res.Names}, nil
}

// String renders the trajectory.
func (r *Fig17Result) String() string {
	t := newTable("Fig 17: Sequential forward selection (RF, SFWB pool, vendor I)",
		"Step", "Added feature", "TPR", "FPR", "AUC")
	for i, s := range r.Steps {
		t.addRow(fmt.Sprint(i+1), s.FeatureName, f4(s.TPR), f4(s.FPR), f4(s.AUC))
	}
	return t.String()
}

// Fig18Result reproduces Fig. 18: MFPA against the state-of-the-art
// baselines [19]–[22] plus the vendor SMART-threshold detector, all on
// the same vendor-I split.
type Fig18Result struct {
	Rows []MetricRow
}

// Fig18 evaluates every baseline and MFPA on identical data handling.
func (c *Context) Fig18() (*Fig18Result, error) {
	res := &Fig18Result{}

	// MFPA (RF on SFWB with the full pipeline).
	p, err := c.Prepared(primaryVendor, features.GroupSFWB)
	if err != nil {
		return nil, err
	}
	m, rep, err := core.Train(p)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, metricRow("MFPA (SFWB+RF)", rep, m))

	// The vendor threshold detector needs no training; evaluate on the
	// S-group test records.
	_, testS, _, err := c.SplitSet(primaryVendor, features.GroupS)
	if err != nil {
		return nil, err
	}
	thrEval := core.EvaluateSamples(baselines.ThresholdDetector{}, testS.Materialize())
	res.Rows = append(res.Rows, MetricRow{
		Name:      "SMART-threshold",
		TPR:       thrEval.TPR(),
		FPR:       thrEval.FPR(),
		ACC:       thrEval.Accuracy(),
		AUC:       thrEval.AUC,
		PDR:       thrEval.PDR(),
		DriveTPR:  thrEval.DriveConfusion.TPR(),
		DriveFPR:  thrEval.DriveConfusion.FPR(),
		Threshold: 0.5,
	})

	// The learned baselines share MFPA's preprocessing but keep their
	// original feature families and algorithms.
	for _, b := range baselines.All() {
		train, test, pb, err := c.SplitSet(primaryVendor, b.Group)
		if err != nil {
			return nil, err
		}
		trainUS, err := sampling.UnderSampleView(train, pb.Config.NegativeRatio, pb.Config.Seed)
		if err != nil {
			return nil, err
		}
		clf, err := b.NewTrainer(pb.Config.Seed).Train(trainUS.Materialize())
		if err != nil {
			return nil, fmt.Errorf("experiments: baseline %s: %w", b.Name, err)
		}
		ev := core.EvaluateSamples(clf, test.Materialize())
		res.Rows = append(res.Rows, MetricRow{
			Name:      b.Name,
			TPR:       ev.TPR(),
			FPR:       ev.FPR(),
			ACC:       ev.Accuracy(),
			AUC:       ev.AUC,
			PDR:       ev.PDR(),
			DriveTPR:  ev.DriveConfusion.TPR(),
			DriveFPR:  ev.DriveConfusion.FPR(),
			Threshold: 0.5,
		})
	}
	return res, nil
}

// Row returns one system's metrics, if present.
func (r *Fig18Result) Row(name string) (MetricRow, bool) {
	for _, row := range r.Rows {
		if row.Name == name {
			return row, true
		}
	}
	return MetricRow{}, false
}

// String renders the comparison.
func (r *Fig18Result) String() string {
	return renderMetricRows("Fig 18: MFPA vs state-of-the-art baselines (vendor I)", "System", r.Rows)
}

// Fig19Result reproduces Fig. 19: TPR as a function of the lookahead
// window N — how far in advance the model still sees the failure. The
// paper: ≈89% at N=5 days, degrading to ≈55.66% at N=20.
type Fig19Result struct {
	// Lookahead[i] days maps to TPR[i].
	Lookahead []int
	TPR       []float64
	Samples   []int
}

// Fig19 trains the standard model and probes positives at increasing
// distance from failure.
func (c *Context) Fig19() (*Fig19Result, error) {
	p, err := c.Prepared(primaryVendor, features.GroupSFWB)
	if err != nil {
		return nil, err
	}
	m, _, err := core.Train(p)
	if err != nil {
		return nil, err
	}
	res := &Fig19Result{}
	for n := 1; n <= 21; n += 2 {
		pos := features.PositiveSamplesAt(p.Frame, p.Labels, p.Extractor, n, 1)
		// Only failures after the learning window are fair probes.
		var test []float64
		flagged := 0
		for i := range pos {
			if lbl, ok := p.Labels[pos[i].SN]; !ok || lbl.FailDay <= m.TrainEndDay {
				continue
			}
			score := m.Predict(pos[i].X)
			test = append(test, score)
			if score >= m.Threshold {
				flagged++
			}
		}
		tpr := 0.0
		if len(test) > 0 {
			tpr = float64(flagged) / float64(len(test))
		}
		res.Lookahead = append(res.Lookahead, n)
		res.TPR = append(res.TPR, tpr)
		res.Samples = append(res.Samples, len(test))
	}
	return res, nil
}

// TPRAt returns the measured TPR at the lookahead closest to n days.
func (r *Fig19Result) TPRAt(n int) float64 {
	best, bestDiff := 0.0, 1<<30
	for i, l := range r.Lookahead {
		d := l - n
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			bestDiff = d
			best = r.TPR[i]
		}
	}
	return best
}

// String renders the decay curve.
func (r *Fig19Result) String() string {
	t := newTable("Fig 19: TPR vs lookahead window N (SFWB+RF, vendor I)",
		"N (days)", "TPR", "Probes")
	for i := range r.Lookahead {
		t.addRow(fmt.Sprint(r.Lookahead[i]), f4(r.TPR[i]), fmt.Sprint(r.Samples[i]))
	}
	return t.String()
}
