// Package agent implements the client-side deployment of MFPA that the
// paper's overhead discussion targets: a lightweight monitor that runs
// on the user's machine, ingests each day's telemetry record for the
// local drive(s), maintains the cumulative counters the model expects,
// scores in microseconds, and raises a backup/replace alarm with
// hysteresis so a single noisy day does not trigger data migration.
// Models arrive through modelio envelopes and can be swapped live when
// the server pushes a re-iterated model (the paper: every two months).
//
// Per-drive accumulation is a features.RollingState — the same
// incremental engine the fleet-side serve.Scorer shards across workers
// — so the agent can optionally run the full discontinuity
// optimisation (Options.GapPolicy) and batch a day's records through
// ObserveDay.
package agent

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/firmware"
	"repro/internal/ml"
)

// Options configures an agent.
type Options struct {
	// AlarmAfter is how many consecutive flagged observations raise the
	// alarm; 0 selects 2. Higher values trade detection latency for
	// fewer spurious migrations.
	AlarmAfter int
	// Registries supplies per-vendor firmware ladders for label
	// encoding; nil falls back to first-seen-order encoding (fine for a
	// single-machine agent).
	Registries map[string]*firmware.Registry
	// Explain attaches the top contributing features to flagged
	// assessments when the deployed model supports decision-path
	// attribution (the random forest does). Costs one extra tree walk
	// per flagged observation.
	Explain bool
	// GapPolicy applies the pipeline's discontinuity optimisation
	// online: short gaps are mean-filled (each filled day is scored)
	// and drives with a DropGap-sized gap stop being scored, exactly as
	// the training pipeline would exclude them. The zero value keeps
	// the agent's original pure-cumulate behaviour: every record scores
	// as-is, gaps ignored.
	GapPolicy dataset.GapPolicy
	// Workers bounds the batch-scoring goroutines of ObserveDay
	// (0 = GOMAXPROCS, 1 = serial). Observe is always serial.
	Workers int
}

// Factor is one feature's contribution to a flagged prediction.
type Factor struct {
	Feature      string
	Contribution float64
}

// explainer is satisfied by models with faithful per-prediction
// attribution (forest.Model).
type explainer interface {
	Explain(x []float64) (contributions []float64, bias float64)
}

// Agent scores a machine's drive telemetry stream against a deployed
// model. It is safe for concurrent use.
type Agent struct {
	mu         sync.Mutex
	model      *core.Model
	extractor  *features.Extractor
	alarmAfter int
	registries map[string]*firmware.Registry
	explain    bool
	policy     dataset.GapPolicy
	workers    int
	drives     map[string]*driveState

	// Reusable scratch (guarded by mu): the per-observation feature
	// rows, row metadata, explanation candidates, and ObserveDay's
	// row-pointer/score batch. Observe used to allocate a fresh vector
	// and []Factor per call; at one call per drive-day fleet-wide that
	// dominated the agent's allocation profile.
	scratchX    []float64
	scratchMeta []features.EmittedRow
	factorBuf   []Factor
	dayPlans    []dayPlan
	dayXs       [][]float64
	dayScores   []float64
}

// driveState is one drive's incremental preprocessing state plus alarm
// hysteresis.
type driveState struct {
	roll        *features.RollingState
	consecutive int
	alarmed     bool
}

// dayPlan locates one ObserveDay record's rows in the batch arena.
type dayPlan struct {
	rowOff int32
	rows   int32
}

// Assessment is the outcome of one observation.
type Assessment struct {
	SerialNumber string
	Day          int
	// Probability is the model's P(faulty) for this record.
	Probability float64
	// Flagged reports Probability ≥ the model's calibrated threshold.
	Flagged bool
	// Interpolated marks assessments of mean-filled days (only
	// produced when Options.GapPolicy is set).
	Interpolated bool
	// ConsecutiveFlags counts the current run of flagged observations.
	ConsecutiveFlags int
	// Alarmed reports that the hysteresis criterion has been met (and
	// latches until ResetDrive).
	Alarmed bool
	// Dropped reports the gap policy excluded the drive; no probability
	// is attached.
	Dropped bool
	// TopFactors lists the strongest positive feature contributions
	// when Options.Explain is set, the observation is flagged, and the
	// model supports attribution; nil otherwise.
	TopFactors []Factor
}

// New builds an agent around a deployed model.
func New(model *core.Model, opts Options) (*Agent, error) {
	if model == nil || model.Classifier == nil {
		return nil, fmt.Errorf("agent: nil model")
	}
	if model.Config.Algorithm.Sequential() {
		return nil, fmt.Errorf("agent: sequence models (%s) are not supported client-side; deploy a flat model", model.Config.Algorithm)
	}
	alarmAfter := opts.AlarmAfter
	if alarmAfter == 0 {
		alarmAfter = 2
	}
	if alarmAfter < 1 {
		return nil, fmt.Errorf("agent: AlarmAfter %d must be ≥ 1", alarmAfter)
	}
	if opts.GapPolicy != (dataset.GapPolicy{}) {
		if err := opts.GapPolicy.Validate(); err != nil {
			return nil, err
		}
	}
	ext, err := features.NewExtractor(model.Config.Group, opts.Registries)
	if err != nil {
		return nil, err
	}
	if model.Width != 0 && ext.Width() != model.Width {
		return nil, fmt.Errorf("agent: model width %d does not match group %s width %d",
			model.Width, model.Config.Group, ext.Width())
	}
	return &Agent{
		model:      model,
		extractor:  ext,
		alarmAfter: alarmAfter,
		registries: opts.Registries,
		explain:    opts.Explain,
		policy:     opts.GapPolicy,
		workers:    opts.Workers,
		drives:     make(map[string]*driveState),
		// Non-nil from the start: a nil x tells Advance to skip
		// extraction (the bulk catch-up path), which is never what the
		// scoring paths want.
		scratchX: make([]float64, 0, ext.Width()*4),
	}, nil
}

// state returns (creating if needed) the drive's state.
func (a *Agent) state(sn string) *driveState {
	st, ok := a.drives[sn]
	if !ok {
		st = &driveState{roll: features.NewRollingState()}
		a.drives[sn] = st
	}
	return st
}

// assess applies threshold + hysteresis to one scored row and fills an
// assessment. Caller holds a.mu.
func (a *Agent) assess(st *driveState, sn string, row features.EmittedRow, x []float64, p float64) Assessment {
	flagged := p >= a.model.Threshold
	if flagged {
		st.consecutive++
	} else {
		st.consecutive = 0
	}
	if st.consecutive >= a.alarmAfter {
		st.alarmed = true
	}
	as := Assessment{
		SerialNumber:     sn,
		Day:              int(row.Day),
		Probability:      p,
		Flagged:          flagged,
		Interpolated:     row.Interpolated,
		ConsecutiveFlags: st.consecutive,
		Alarmed:          st.alarmed,
	}
	if flagged && a.explain {
		as.TopFactors = a.topFactors(x)
	}
	return as
}

// Observe ingests one day's raw (daily-count) telemetry record and
// returns the health assessment for that day. Records for a drive must
// arrive in chronological order. When a gap policy is active, mean-
// filled days are scored too (they advance the hysteresis) and a
// record of a dropped drive returns a Dropped assessment.
func (a *Agent) Observe(rec dataset.Record) (Assessment, error) {
	if err := rec.Validate(); err != nil {
		return Assessment{}, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	st := a.state(rec.SerialNumber)
	x, meta, err := st.roll.Advance(a.extractor, a.policy, &rec, a.scratchX[:0], a.scratchMeta[:0])
	a.scratchX, a.scratchMeta = x, meta
	if err != nil {
		return Assessment{}, err
	}
	if len(meta) == 0 {
		return Assessment{SerialNumber: rec.SerialNumber, Day: rec.Day, Dropped: true}, nil
	}
	width := a.extractor.Width()
	var as Assessment
	for k := range meta {
		row := x[k*width : (k+1)*width]
		as = a.assess(st, rec.SerialNumber, meta[k], row, a.model.Predict(row))
	}
	return as, nil // the record's own day is always the last row
}

// ObserveDay ingests a batch of records — typically every local drive's
// record for one day — in a single pass: all feature rows accumulate
// into one arena and score through the ml.ScoreBatch fast path in one
// call. It returns one assessment per emitted row (mean-filled days
// precede their record's day) plus one Dropped entry per excluded
// record, in input-record order — a superset of what per-record Observe
// calls would return. Scores are identical to Observe's. A batch with
// an invalid or out-of-order record is rejected whole, before any drive
// advances.
func (a *Agent) ObserveDay(recs []dataset.Record) ([]Assessment, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()

	if cap(a.dayPlans) < len(recs) {
		a.dayPlans = make([]dayPlan, len(recs))
	}
	a.dayPlans = a.dayPlans[:len(recs)]
	if err := a.checkBatch(recs); err != nil {
		return nil, err
	}
	x, meta := a.scratchX[:0], a.scratchMeta[:0]
	for i := range recs {
		st := a.state(recs[i].SerialNumber)
		before := len(meta)
		var err error
		x, meta, err = st.roll.Advance(a.extractor, a.policy, &recs[i], x, meta)
		a.scratchX, a.scratchMeta = x, meta
		if err != nil {
			return nil, err
		}
		a.dayPlans[i] = dayPlan{rowOff: int32(before), rows: int32(len(meta) - before)}
	}
	a.scratchX, a.scratchMeta = x, meta

	width := a.extractor.Width()
	rows := len(meta)
	a.dayXs = a.dayXs[:0]
	for r := 0; r < rows; r++ {
		a.dayXs = append(a.dayXs, x[r*width:(r+1)*width:(r+1)*width])
	}
	if cap(a.dayScores) < rows {
		a.dayScores = make([]float64, rows)
	}
	a.dayScores = a.dayScores[:rows]
	ml.ScoreBatch(a.model.Classifier, a.dayXs, a.dayScores, a.workers)

	entries := 0
	for i := range recs {
		if a.dayPlans[i].rows == 0 {
			entries++
		} else {
			entries += int(a.dayPlans[i].rows)
		}
	}
	out := make([]Assessment, 0, entries)
	for i := range recs {
		p := a.dayPlans[i]
		if p.rows == 0 {
			out = append(out, Assessment{SerialNumber: recs[i].SerialNumber, Day: recs[i].Day, Dropped: true})
			continue
		}
		st := a.drives[recs[i].SerialNumber]
		for k := int32(0); k < p.rows; k++ {
			r := int(p.rowOff + k)
			out = append(out, a.assess(st, recs[i].SerialNumber, meta[r], a.dayXs[r], a.dayScores[r]))
		}
	}
	return out, nil
}

// checkBatch rejects a batch before any drive advances: every record
// must validate and follow its drive's last observed day (the state's,
// or an earlier record's in the same batch). A rejected batch therefore
// leaves every rolling state untouched, and the caller can resubmit the
// valid records. Caller holds a.mu.
func (a *Agent) checkBatch(recs []dataset.Record) error {
	last := make(map[string]int, len(recs))
	for i := range recs {
		rec := &recs[i]
		if err := rec.Validate(); err != nil {
			return err
		}
		prev, ok := last[rec.SerialNumber]
		if !ok {
			prev = -1
			if st, known := a.drives[rec.SerialNumber]; known && st.roll.Observed() > 0 {
				prev = st.roll.LastDay()
			}
		}
		if prev >= 0 && rec.Day <= prev {
			return fmt.Errorf("agent: drive %s: day %d does not follow day %d", rec.SerialNumber, rec.Day, prev)
		}
		last[rec.SerialNumber] = rec.Day
	}
	return nil
}

// topFactors returns the three strongest positive contributions when
// the model supports attribution. The candidate slice is pooled on the
// agent; only the returned top-3 escape.
func (a *Agent) topFactors(x []float64) []Factor {
	exp, ok := a.model.Classifier.(explainer)
	if !ok {
		return nil
	}
	contrib, _ := exp.Explain(x)
	names := a.extractor.Names()
	if len(contrib) != len(names) {
		return nil
	}
	factors := a.factorBuf[:0]
	for i, c := range contrib {
		if c > 0 {
			factors = append(factors, Factor{Feature: names[i], Contribution: c})
		}
	}
	a.factorBuf = factors
	sort.Slice(factors, func(i, j int) bool { return factors[i].Contribution > factors[j].Contribution })
	if len(factors) > 3 {
		factors = factors[:3]
	}
	out := make([]Factor, len(factors))
	copy(out, factors)
	return out
}

// Window returns a drive's trailing-window diagnostics (recent daily
// W/B event rates, media-error growth).
func (a *Agent) Window(sn string) (features.WindowStats, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.drives[sn]
	if !ok {
		return features.WindowStats{}, false
	}
	return st.roll.Window(), true
}

// UpdateModel swaps in a newly pushed model. The feature group must
// match so the accumulated per-drive state stays valid.
func (a *Agent) UpdateModel(model *core.Model) error {
	if model == nil || model.Classifier == nil {
		return fmt.Errorf("agent: nil model")
	}
	if model.Config.Algorithm.Sequential() {
		return fmt.Errorf("agent: sequence models are not supported client-side")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if model.Config.Group != a.model.Config.Group {
		return fmt.Errorf("agent: pushed model uses group %s, agent runs %s",
			model.Config.Group, a.model.Config.Group)
	}
	ext, err := features.NewExtractor(model.Config.Group, a.registries)
	if err != nil {
		return err
	}
	a.model = model
	a.extractor = ext
	return nil
}

// Threshold returns the active model's decision threshold.
func (a *Agent) Threshold() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.model.Threshold
}

// Drives lists the serial numbers observed so far, sorted.
func (a *Agent) Drives() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.drives))
	for sn := range a.drives {
		out = append(out, sn)
	}
	sort.Strings(out)
	return out
}

// Alarmed reports whether a drive's alarm has latched.
func (a *Agent) Alarmed(sn string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.drives[sn]
	return ok && st.alarmed
}

// ResetDrive clears a drive's accumulated state (e.g. after the drive
// was replaced). It reports whether the drive was known.
func (a *Agent) ResetDrive(sn string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.drives[sn]; !ok {
		return false
	}
	delete(a.drives, sn)
	return true
}
