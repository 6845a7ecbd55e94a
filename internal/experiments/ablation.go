package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/ml/forest"
	"repro/internal/ml/metrics"
	"repro/internal/sampling"
	"repro/internal/simfleet"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Setting string
	TPR     float64
	FPR     float64
	AUC     float64
	Note    string
}

// AblationResult is a generic ablation table.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// String renders the sweep.
func (r *AblationResult) String() string {
	t := newTable(r.Title, "Setting", "TPR", "FPR", "AUC", "Note")
	for _, row := range r.Rows {
		t.addRow(row.Setting, f4(row.TPR), f4(row.FPR), f4(row.AUC), row.Note)
	}
	return t.String()
}

// Row returns the metrics of one setting, if present.
func (r *AblationResult) Row(setting string) (AblationRow, bool) {
	for _, row := range r.Rows {
		if row.Setting == setting {
			return row, true
		}
	}
	return AblationRow{}, false
}

// runVariant trains one pipeline variant on the context fleet and
// converts it to a row. Variants that keep the default preprocessing
// share the context's preparation.
func (c *Context) runVariant(setting string, mutate func(*core.Config)) (AblationRow, error) {
	cfg := c.PipelineConfig(primaryVendor, features.GroupSFWB)
	mutate(&cfg)
	p, err := c.prepare(cfg)
	if err != nil {
		return AblationRow{}, fmt.Errorf("experiments: variant %s: %w", setting, err)
	}
	return variantRow(setting, p)
}

// runVariantOn trains one pipeline variant against an explicit fleet.
func (c *Context) runVariantOn(fleet *simfleet.Result, setting string, mutate func(*core.Config)) (AblationRow, error) {
	cfg := c.PipelineConfig(primaryVendor, features.GroupSFWB)
	mutate(&cfg)
	p, err := core.PrepareFrame(fleet.Data, fleet.Tickets, cfg)
	if err != nil {
		return AblationRow{}, fmt.Errorf("experiments: variant %s: %w", setting, err)
	}
	return variantRow(setting, p)
}

func variantRow(setting string, p *core.Prepared) (AblationRow, error) {
	_, rep, err := core.Train(p)
	if err != nil {
		return AblationRow{}, fmt.Errorf("experiments: variant %s: %w", setting, err)
	}
	return AblationRow{Setting: setting, TPR: rep.Eval.TPR(), FPR: rep.Eval.FPR(), AUC: rep.Eval.AUC}, nil
}

// thetaFleet simulates a fleet with heavy ticket delays and machine
// abandonment, so the θ sensitivity test actually bites: with a mean
// failure→repair lag of nine days and half the users walking away from
// flaky machines early, a small θ leaves many failures unlabellable
// (starving the positive class) while a large θ back-dates labels into
// barely-degraded territory (polluting it).
func (c *Context) thetaFleet() (*simfleet.Result, error) {
	cfg := c.Cfg
	cfg.TicketDelayMeanDays = 9
	cfg.TicketDelayMaxDays = 30
	cfg.AbandonShare = 0.5
	cfg.AbandonMaxDays = 15
	return simfleet.Simulate(cfg)
}

// AblationTheta sweeps the failure-time threshold θ (the paper sets 7
// via a sensitivity test: too high raises FPR, too low starves TPR) on
// the heavy-delay fleet where labelling noise matters.
func (c *Context) AblationTheta() (*AblationResult, error) {
	fleet, err := c.thetaFleet()
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: "Ablation: failure-time threshold θ (delays mean 9d, 50% early abandonment)"}
	for _, theta := range []int{1, 3, 5, 7, 10, 14, 21} {
		row, err := c.runVariantOn(fleet, fmt.Sprintf("θ=%d", theta), func(cfg *core.Config) { cfg.Theta = theta })
		if err != nil {
			return nil, err
		}
		if theta == 7 {
			row.Note = "paper's choice"
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationGapPolicy compares the paper's discontinuity optimisation
// against no cleaning and against a stricter drop rule.
func (c *Context) AblationGapPolicy() (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: discontinuity optimisation (drop/fill policy)"}
	variants := []struct {
		name   string
		mutate func(*core.Config)
		note   string
	}{
		{"drop≥10,fill≤3", func(cfg *core.Config) {}, "paper's policy"},
		{"no cleaning", func(cfg *core.Config) { cfg.SkipClean = true }, ""},
		{"drop≥6,fill≤3", func(cfg *core.Config) { cfg.GapPolicy = dataset.GapPolicy{DropGap: 6, FillGap: 3} }, "stricter drop"},
		{"drop≥10,fill≤1", func(cfg *core.Config) { cfg.GapPolicy = dataset.GapPolicy{DropGap: 10, FillGap: 1} }, "no mean fill"},
	}
	for _, v := range variants {
		row, err := c.runVariant(v.name, v.mutate)
		if err != nil {
			return nil, err
		}
		row.Note = v.note
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationSegmentation compares timepoint-based segmentation with the
// conventional shuffled split the paper argues against. The shuffled
// split trains on future data, so its numbers are optimistically
// biased — the ablation quantifies the bias.
func (c *Context) AblationSegmentation() (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: sample segmentation (Fig 8a)"}
	row, err := c.runVariant("timepoint-based", func(cfg *core.Config) {})
	if err != nil {
		return nil, err
	}
	row.Note = "paper's method; honest forward evaluation"
	res.Rows = append(res.Rows, row)

	row, err = c.runVariant("random split", func(cfg *core.Config) { cfg.RandomSegmentation = true })
	if err != nil {
		return nil, err
	}
	row.Note = "leaks future data into training"
	res.Rows = append(res.Rows, row)
	return res, nil
}

// AblationCrossValidation compares how well time-series CV and
// conventional k-fold CV *estimate* the model's true held-out AUC. The
// paper's point: k-fold validates on the past, so its estimate is
// optimistic; TS-CV's estimate tracks reality.
func (c *Context) AblationCrossValidation() (*AblationResult, error) {
	trainView, testView, p, err := c.SplitSet(primaryVendor, features.GroupSFWB)
	if err != nil {
		return nil, err
	}
	test := testView.Materialize()
	trainUS, err := sampling.UnderSampleView(trainView, p.Config.NegativeRatio, p.Config.Seed)
	if err != nil {
		return nil, err
	}
	trainer := &forest.Trainer{Trees: 60, MaxDepth: 12, Seed: p.Config.Seed}

	// Ground truth: train on the full window, evaluate forward.
	clf, err := trainer.Train(trainUS.Materialize())
	if err != nil {
		return nil, err
	}
	trueAUC := metrics.AUCScore(clf, test)

	meanAUC := func(folds []sampling.FoldView) (float64, error) {
		var sum float64
		n := 0
		for _, fold := range folds {
			neg, pos := fold.Train.ClassCounts()
			negV, posV := fold.Val.ClassCounts()
			if neg == 0 || pos == 0 || negV == 0 || posV == 0 {
				continue
			}
			cl, err := trainer.Train(fold.Train.Materialize())
			if err != nil {
				return 0, err
			}
			sum += metrics.AUCScore(cl, fold.Val.Materialize())
			n++
		}
		if n == 0 {
			return math.NaN(), nil
		}
		return sum / float64(n), nil
	}

	tsFolds, err := sampling.TimeSeriesCVView(trainUS, 3)
	if err != nil {
		return nil, err
	}
	tsAUC, err := meanAUC(tsFolds)
	if err != nil {
		return nil, err
	}
	kFolds, err := sampling.KFoldCVView(trainUS, 4, p.Config.Seed)
	if err != nil {
		return nil, err
	}
	kAUC, err := meanAUC(kFolds)
	if err != nil {
		return nil, err
	}

	res := &AblationResult{Title: "Ablation: cross-validation scheme (Fig 8b) — estimated vs true AUC"}
	res.Rows = append(res.Rows,
		AblationRow{Setting: "true forward AUC", AUC: trueAUC, Note: "train window → test window"},
		AblationRow{Setting: "time-series CV estimate", AUC: tsAUC,
			Note: fmt.Sprintf("bias %+0.4f", tsAUC-trueAUC)},
		AblationRow{Setting: "k-fold CV estimate", AUC: kAUC,
			Note: fmt.Sprintf("bias %+0.4f (validates on the past)", kAUC-trueAUC)},
	)
	return res, nil
}

// AblationSampling sweeps the under-sampling ratio (the paper uses 3:1
// or 5:1).
func (c *Context) AblationSampling() (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: negative under-sampling ratio"}
	for _, ratio := range []float64{1, 3, 5, 10} {
		row, err := c.runVariant(fmt.Sprintf("%g:1", ratio), func(cfg *core.Config) { cfg.NegativeRatio = ratio })
		if err != nil {
			return nil, err
		}
		if ratio == 3 {
			row.Note = "paper's default"
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationCumulative compares cumulative W/B counters against raw daily
// counts (the paper accumulates because daily counts are too sparse to
// show trends).
func (c *Context) AblationCumulative() (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: cumulative vs daily W/B counters"}
	row, err := c.runVariant("cumulative", func(cfg *core.Config) {})
	if err != nil {
		return nil, err
	}
	row.Note = "paper's preprocessing"
	res.Rows = append(res.Rows, row)

	row, err = c.runVariant("daily counts", func(cfg *core.Config) { cfg.SkipCumulate = true })
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, row)
	return res, nil
}

// AblationPositiveWindow sweeps the positive sample window (7/14/21
// days, the choices the paper lists).
func (c *Context) AblationPositiveWindow() (*AblationResult, error) {
	res := &AblationResult{Title: "Ablation: positive sample window"}
	for _, days := range []int{7, 14, 21} {
		row, err := c.runVariant(fmt.Sprintf("%dd", days), func(cfg *core.Config) { cfg.PositiveWindowDays = days })
		if err != nil {
			return nil, err
		}
		if days == 7 {
			row.Note = "paper's default"
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
