// Package fleetops is the fleet-side half of the paper's Fig. 1: a
// service that owns one MFPA model per vendor, re-trains ("iterates")
// each model on a fixed cadence — the paper recommends every two to
// three months — using only the telemetry and tickets visible at that
// date, tracks evaluation history across iterations, and publishes
// modelio envelopes for the client agents to download.
package fleetops

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/modelio"
	"repro/internal/serve"
	"repro/internal/ticket"
)

// Options configures the service.
type Options struct {
	// Template is the pipeline configuration applied to every vendor
	// (Vendor is overwritten per model). Zero-valued fields take the
	// core defaults.
	Template core.Config
	// IterationDays is the re-training cadence; 0 selects 60 (the
	// paper's two months).
	IterationDays int
	// MaxRetries bounds the extra attempts made when a sweep or model
	// swap fails transiently (errors declaring Transient() bool); 0
	// selects 2, negative disables retries.
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt; 0 selects 10ms.
	RetryBackoff time.Duration
}

// IterationRecord is one completed training of a vendor model.
type IterationRecord struct {
	// Day is the as-of day the model was trained at.
	Day int
	// Eval is the held-out evaluation measured at training time.
	Eval core.Evaluation
	// Threshold is the calibrated decision threshold.
	Threshold float64
	// TrainSamples is the post-undersampling training set size.
	TrainSamples int
}

// vendorState tracks one vendor's current model, history, and (once
// daily sweeps start) its incremental fleet scorer.
type vendorState struct {
	model   *core.Model
	history []IterationRecord
	scorer  *serve.Scorer
}

// Service manages per-vendor MFPA models. It is safe for concurrent
// use.
type Service struct {
	mu            sync.Mutex
	template      core.Config
	iterationDays int
	maxRetries    int
	retryBackoff  time.Duration
	vendors       map[string]*vendorState
}

// New builds a service.
func New(opts Options) (*Service, error) {
	iter := opts.IterationDays
	if iter == 0 {
		iter = 60
	}
	if iter < 1 {
		return nil, fmt.Errorf("fleetops: IterationDays %d must be ≥ 1", iter)
	}
	retries := opts.MaxRetries
	if retries == 0 {
		retries = 2
	}
	if retries < 0 {
		retries = 0
	}
	backoff := opts.RetryBackoff
	if backoff == 0 {
		backoff = 10 * time.Millisecond
	}
	tpl := opts.Template
	tpl.Vendor = ""
	if tpl.Group.Empty() {
		// Zero template: the paper's best configuration.
		tpl = core.DefaultConfig("")
	}
	if err := tpl.Validate(); err != nil {
		return nil, err
	}
	return &Service{
		template:      tpl,
		iterationDays: iter,
		maxRetries:    retries,
		retryBackoff:  backoff,
		vendors:       make(map[string]*vendorState),
	}, nil
}

// isTransient reports whether err (or anything it wraps) declares
// itself retryable via a Transient() bool method — the structural
// contract injected faults and transport errors share, so fleetops
// never needs to import their packages.
func isTransient(err error) bool {
	var te interface{ Transient() bool }
	return errors.As(err, &te) && te.Transient()
}

// retryTransient runs fn up to 1+s.maxRetries times with exponential
// backoff, retrying only while the error stays transient. It returns
// the number of retries consumed alongside fn's final error.
func (s *Service) retryTransient(fn func() error) (retries int, err error) {
	for attempt := 0; ; attempt++ {
		err = fn()
		if err == nil || attempt >= s.maxRetries || !isTransient(err) {
			return attempt, err
		}
		if s.retryBackoff > 0 {
			time.Sleep(s.retryBackoff << attempt)
		}
	}
}

// Train (re-)trains the vendor's model as of asOfDay: only telemetry
// records observed by then and tickets filed by then are visible, so an
// iteration never peeks at the future. The visible telemetry is a
// column-sharing view of data, not a copy.
func (s *Service) Train(data *dataset.Frame, tickets *ticket.Store, vendor string, asOfDay int) (IterationRecord, error) {
	cfg := s.template
	cfg.Vendor = vendor
	visible := data.FilterVendor(vendor).Until(asOfDay)
	model, report, err := core.TrainOnFrame(visible, tickets.Until(asOfDay), cfg)
	if err != nil {
		return IterationRecord{}, fmt.Errorf("fleetops: vendor %s at day %d: %w", vendor, asOfDay, err)
	}
	rec := IterationRecord{
		Day:          asOfDay,
		Eval:         report.Eval,
		Threshold:    model.Threshold,
		TrainSamples: report.TrainSamples,
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok {
		st = &vendorState{}
		s.vendors[vendor] = st
	}
	if st.scorer != nil {
		// The sweep scorer keeps its accumulated drive state across
		// iterations; only the model swaps (the template's group never
		// changes, so the state stays valid). Transient swap failures
		// are retried; a persistent failure leaves the previous model
		// both serving and published, so the fleet never sees a
		// half-deployed iteration.
		if _, err := s.retryTransient(func() error { return st.scorer.UpdateModel(model) }); err != nil {
			return rec, fmt.Errorf("fleetops: vendor %s: %w", vendor, err)
		}
	}
	st.model = model
	st.history = append(st.history, rec)
	return rec, nil
}

// NeedsIteration reports whether the vendor's model is due for
// re-training at today: never trained, or trained at least
// IterationDays ago.
func (s *Service) NeedsIteration(vendor string, today int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok || len(st.history) == 0 {
		return true
	}
	last := st.history[len(st.history)-1].Day
	return today-last >= s.iterationDays
}

// Step re-trains every listed vendor that is due at today and returns
// the vendors that were re-trained.
func (s *Service) Step(data *dataset.Frame, tickets *ticket.Store, vendors []string, today int) ([]string, error) {
	var retrained []string
	for _, v := range vendors {
		if !s.NeedsIteration(v, today) {
			continue
		}
		if _, err := s.Train(data, tickets, v, today); err != nil {
			return retrained, err
		}
		retrained = append(retrained, v)
	}
	return retrained, nil
}

// Model returns the vendor's current model, if one has been trained.
func (s *Service) Model(vendor string) (*core.Model, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok || st.model == nil {
		return nil, false
	}
	return st.model, true
}

// Publish serialises the vendor's current model for distribution to
// client agents.
func (s *Service) Publish(vendor string) ([]byte, error) {
	m, ok := s.Model(vendor)
	if !ok {
		return nil, fmt.Errorf("fleetops: no model for vendor %s", vendor)
	}
	return modelio.Marshal(m)
}

// History returns the vendor's iteration records, oldest first.
func (s *Service) History(vendor string) []IterationRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok {
		return nil
	}
	out := make([]IterationRecord, len(st.history))
	copy(out, st.history)
	return out
}

// Vendors returns the vendors with at least one trained model, sorted.
func (s *Service) Vendors() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.vendors))
	for v := range s.vendors {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
