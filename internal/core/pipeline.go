package core

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/ml/metrics"
	"repro/internal/sampling"
	"repro/internal/ticket"
)

// Prepared is the output of the preprocessing stages: cleaned,
// cumulated, vendor-filtered columnar telemetry with resolved failure
// labels and a fitted extractor — everything model training consumes.
// Preparing once and training several models on it is the normal
// experiment flow; Derive reuses one preparation across variants that
// differ only in modelling settings.
type Prepared struct {
	Config     Config
	Frame      *dataset.Frame
	Labels     labeling.Labels
	Extractor  *features.Extractor
	CleanStats dataset.CleanStats
	LabelStats labeling.Stats
	// Timing of the preprocessing stages (the Fig. 20 overhead rows).
	CleanTime   time.Duration
	LabelTime   time.Duration
	RecordCount int
}

// PrepareFrame runs MFPA's data stages on the columnar data plane:
// vendor filter as a zero-copy drive-range view, then the fused
// discontinuity optimisation + cumulative W/B transform (one traversal
// per drive), then failure-time identification straight off the day
// column, then extractor construction.
func PrepareFrame(f *dataset.Frame, tickets *ticket.Store, cfg Config) (*Prepared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	if cfg.Vendor != "" {
		f = f.FilterVendor(cfg.Vendor)
		if f.Drives() == 0 {
			return nil, fmt.Errorf("core: no drives for vendor %q", cfg.Vendor)
		}
	}

	p := &Prepared{Config: cfg}
	start := time.Now()
	out, stats, err := dataset.PreparePipeline(f, dataset.PipelineOptions{
		Policy:       cfg.GapPolicy,
		SkipClean:    cfg.SkipClean,
		SkipCumulate: cfg.SkipCumulate,
		Workers:      cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	p.Frame = out
	if !cfg.SkipClean {
		p.CleanStats = stats
	}
	p.CleanTime = time.Since(start)
	p.RecordCount = out.Len()

	start = time.Now()
	labels, err := labeling.IdentifyFrame(out, tickets, cfg.Theta)
	if err != nil {
		return nil, err
	}
	p.Labels = labels
	p.LabelStats = labeling.Summarise(labels)
	p.LabelTime = time.Since(start)

	ext, err := features.NewExtractor(cfg.Group, cfg.Registries)
	if err != nil {
		return nil, err
	}
	p.Extractor = ext
	return p, nil
}

// Derive returns the preparation of cfg on the same telemetry, sharing
// p's frame, labels and statistics with a fresh extractor for cfg's
// feature group. It applies only when cfg changes no setting
// PrepareFrame reads — Vendor, GapPolicy, SkipClean, SkipCumulate and
// Theta — and ok is false otherwise; the caller then prepares afresh.
// Workers never changes a preparation, so it may differ.
func (p *Prepared) Derive(cfg Config) (d *Prepared, ok bool, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	cfg = cfg.withDefaults()
	have := p.Config
	if cfg.Vendor != have.Vendor || cfg.GapPolicy != have.GapPolicy || cfg.SkipClean != have.SkipClean ||
		cfg.SkipCumulate != have.SkipCumulate || cfg.Theta != have.Theta {
		return nil, false, nil
	}
	ext, err := features.NewExtractor(cfg.Group, cfg.Registries)
	if err != nil {
		return nil, false, err
	}
	c := *p
	c.Config = cfg
	c.Extractor = ext
	return &c, true, nil
}

// buildOptions are the sample-construction options of the configuration.
func (p *Prepared) buildOptions() features.BuildOptions {
	opts := features.DefaultBuildOptions()
	opts.PositiveWindowDays = p.Config.PositiveWindowDays
	opts.Workers = p.Config.Workers
	return opts
}

// BuildSampleSet extracts the flat labelled samples into a columnar
// ml.SampleSet — the representation the view-based training path
// shares across splits, calibration folds, and search candidates.
func (p *Prepared) BuildSampleSet() (*ml.SampleSet, error) {
	return features.BuildSampleSetFrame(p.Frame, p.Labels, p.Extractor, p.buildOptions())
}

// trainingSet builds the set Train consumes: SeqLen-record windows for
// the sequential CNN_LSTM, flat rows for every other algorithm.
func (p *Prepared) trainingSet() (*ml.SampleSet, error) {
	if p.Config.Algorithm.Sequential() {
		return features.BuildSeqSampleSet(p.Frame, p.Labels, p.Extractor, p.Config.SeqLen, p.buildOptions())
	}
	return p.BuildSampleSet()
}

// Model is a trained MFPA failure predictor.
type Model struct {
	Config      Config
	Classifier  ml.Classifier
	TrainerName string
	// TrainEndDay is the last day included in the learning window.
	TrainEndDay int
	// Width is the flat feature width; SeqLen*Width for CNN_LSTM input.
	Width int
	// Threshold is the calibrated decision threshold (0.5 when
	// FixedThreshold is set).
	Threshold float64
}

// TrainReport carries everything measured while training, including
// the held-out evaluation and the per-stage overheads of Fig. 20.
type TrainReport struct {
	Prepared *Prepared
	// TrainSamples/TestSamples are post-undersampling counts.
	TrainSamples int
	TestSamples  int
	TrainPos     int
	TestPos      int
	// Eval is the held-out (chronologically later) evaluation.
	Eval Evaluation
	// Stage timings.
	SampleTime time.Duration
	TrainTime  time.Duration
	EvalTime   time.Duration
}

// Train runs the modelling stages of MFPA on prepared data, one path
// for every algorithm: sample construction → timepoint segmentation →
// under-sampling → threshold calibration → training → held-out
// evaluation.
//
// Samples are extracted once into a shared ml.SampleSet — flat rows,
// or for the sequential CNN_LSTM a windowed set whose overlapping
// sequence windows share one per-record arena — and segmentation,
// under-sampling, calibration folds, and training all operate on
// zero-copy row-index views of it (bin-once for the tree ensembles).
func Train(p *Prepared) (*Model, *TrainReport, error) {
	cfg := p.Config
	report := &TrainReport{Prepared: p}

	start := time.Now()
	set, err := p.trainingSet()
	if err != nil {
		return nil, nil, err
	}
	report.SampleTime = time.Since(start)

	var train, test ml.View
	if cfg.RandomSegmentation {
		train, test = sampling.RandomSplitView(set.All(), 1-cfg.TrainFrac, cfg.Seed)
	} else {
		train, test = sampling.SplitFractionView(set.All(), cfg.TrainFrac)
	}
	// The held-out set is only read for evaluation, so a header-only
	// materialisation (vectors aliasing the arena) is safe and cheap.
	testSamples := test.Materialize()
	trainFull := train
	train, err = sampling.UnderSampleView(train, cfg.NegativeRatio, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	if err := ml.ValidateView(train, true); err != nil {
		return nil, nil, fmt.Errorf("core: training set: %w", err)
	}
	report.TrainSamples = train.Len()
	report.TestSamples = len(testSamples)
	_, report.TrainPos = train.ClassCounts()
	_, report.TestPos = ml.ClassCounts(testSamples)

	width := p.Extractor.Width()
	trainer, err := cfg.Algorithm.newTrainer(cfg.Seed, width, cfg.SeqLen, cfg.Workers, cfg.Bins)
	if err != nil {
		return nil, nil, err
	}
	start = time.Now()
	threshold := 0.5
	if !cfg.FixedThreshold {
		if t, err := calibrateThresholdView(trainer, trainFull, cfg); err == nil {
			threshold = t
		}
	}
	clf, err := ml.TrainOn(trainer, train)
	if err != nil {
		return nil, nil, err
	}
	report.TrainTime = time.Since(start)

	m := &Model{
		Config:      cfg,
		Classifier:  clf,
		TrainerName: trainer.Name(),
		Width:       width,
		Threshold:   threshold,
	}
	if train.Len() > 0 {
		m.TrainEndDay = train.MaxDay()
	}

	start = time.Now()
	if len(testSamples) > 0 {
		report.Eval = EvaluateSamplesAt(clf, testSamples, threshold)
	}
	report.EvalTime = time.Since(start)
	return m, report, nil
}

// calibrateThresholdView picks the decision threshold on pooled
// time-series cross-validation folds of the *full-prevalence* training
// window: each fold's training part is under-sampled exactly as the
// final model's is, but validation keeps the natural class balance so
// the FPR estimate is trustworthy. The operating point is chosen
// without touching test data. CV folds and their under-sampled
// training parts are row-index views of the shared arena, and the
// pooled score/label buffers are preallocated from the usable folds'
// validation sizes — each fold scores straight into its slot.
func calibrateThresholdView(trainer ml.Trainer, trainFull ml.View, cfg Config) (float64, error) {
	folds, err := sampling.TimeSeriesCVView(trainFull, cfg.CVFolds)
	if err != nil {
		return 0, err
	}
	type calFold struct {
		train, val ml.View
		off        int
	}
	usable := make([]calFold, 0, len(folds))
	total := 0
	for _, fold := range folds {
		tr, err := sampling.UnderSampleView(fold.Train, cfg.NegativeRatio, cfg.Seed)
		if err != nil {
			return 0, err
		}
		if !bothClassesView(tr) || !bothClassesView(fold.Val) {
			continue
		}
		usable = append(usable, calFold{train: tr, val: fold.Val, off: total})
		total += fold.Val.Len()
	}
	if total == 0 {
		return 0, fmt.Errorf("core: no usable calibration folds")
	}
	scores := make([]float64, total)
	labels := make([]int, total)
	for _, f := range usable {
		clf, err := ml.TrainOn(trainer, f.train)
		if err != nil {
			return 0, err
		}
		n := f.val.Len()
		ml.ScoreView(clf, f.val, scores[f.off:f.off+n], cfg.Workers)
		for i := 0; i < n; i++ {
			labels[f.off+i] = f.val.Y(i)
		}
	}
	return pickThreshold(scores, labels), nil
}

// pickThreshold selects the operating point from pooled calibration
// scores by the weighted Youden index: a false alarm triggers
// pointless data migration and service interruption (the paper's
// motivation for PDR), so FPR is penalised more strongly than missed
// detections are rewarded.
func pickThreshold(scores []float64, labels []int) float64 {
	roc := metrics.ROCFromScores(scores, labels)
	best, bestJ := 0.5, -1.0
	for _, pt := range roc[1:] { // skip the +Inf corner
		if j := pt.TPR - fprPenalty*pt.FPR; j > bestJ {
			bestJ = j
			best = pt.Threshold
		}
	}
	return best
}

// fprPenalty is the false-positive weight of the calibration criterion.
const fprPenalty = 3

func bothClassesView(v ml.View) bool {
	neg, pos := v.ClassCounts()
	return neg > 0 && pos > 0
}

// TrainOnFrame is the one-call convenience: PrepareFrame followed by
// Train.
func TrainOnFrame(f *dataset.Frame, tickets *ticket.Store, cfg Config) (*Model, *TrainReport, error) {
	p, err := PrepareFrame(f, tickets, cfg)
	if err != nil {
		return nil, nil, err
	}
	return Train(p)
}
