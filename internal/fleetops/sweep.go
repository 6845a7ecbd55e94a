package fleetops

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// The daily sweep is the service's recurring serving workload: score
// every vendor's fleet once per day through the incremental sharded
// engine, instead of pushing models to client agents. Each vendor keeps
// one serve.Scorer whose per-drive rolling state persists across days
// and model iterations.

// SweepStats summarises one SweepDay pass: the scorers' batch counters
// summed over the vendors with a trained model (Records counts only
// their records), plus the service's own counters.
type SweepStats struct {
	serve.SweepStats
	// NoModel counts records skipped because their vendor has no
	// trained model yet.
	NoModel int
	// Retries counts transient batch failures that were retried away.
	Retries int
}

// Add accumulates o into st, for callers summing several sweeps.
func (st *SweepStats) Add(o SweepStats) {
	st.SweepStats.Add(o.SweepStats)
	st.NoModel += o.NoModel
	st.Retries += o.Retries
}

// EnsureScorer returns the vendor's sweep scorer, creating it from the
// vendor's current model if needed. opts only applies at creation.
func (s *Service) EnsureScorer(vendor string, opts serve.Options) (*serve.Scorer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok || st.model == nil {
		return nil, fmt.Errorf("fleetops: no model for vendor %s", vendor)
	}
	if st.scorer == nil {
		sc, err := serve.New(st.model, opts)
		if err != nil {
			return nil, fmt.Errorf("fleetops: vendor %s: %w", vendor, err)
		}
		st.scorer = sc
	}
	return st.scorer, nil
}

// Scorer returns the vendor's sweep scorer, if one exists.
func (s *Service) Scorer(vendor string) (*serve.Scorer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.vendors[vendor]
	if !ok || st.scorer == nil {
		return nil, false
	}
	return st.scorer, true
}

// Bootstrap catches the vendor's sweep scorer up from historical
// telemetry in one frame-native bulk pass (no scoring) — the fast path
// for starting daily sweeps mid-collection. The frame must hold raw
// daily counts; drives of other vendors are ignored.
func (s *Service) Bootstrap(f *dataset.Frame, vendor string, opts serve.Options) (serve.ReplayStats, error) {
	sc, err := s.EnsureScorer(vendor, opts)
	if err != nil {
		return serve.ReplayStats{}, err
	}
	return sc.ReplayFrame(f.FilterVendor(vendor))
}

// SweepDay scores one day of fleet telemetry: records are routed to
// their vendor's scorer (created on first sight with opts) and each
// vendor's batch runs through its sharded ObserveDay. Assessments come
// back grouped by vendor in lexicographic vendor order, input order
// within a vendor — deterministic at any worker count. Records of
// vendors without a trained model are counted in stats and skipped.
//
// Transient batch failures (ObserveDay faults fire before any state
// mutates) are retried up to Options.MaxRetries times with exponential
// backoff; corrupt records quarantine their drive inside the scorer
// rather than failing the sweep, so an error return means a vendor's
// whole batch was persistently unscorable.
func (s *Service) SweepDay(recs []dataset.Record, opts serve.Options) ([]serve.Assessment, SweepStats, error) {
	var stats SweepStats
	byVendor := make(map[string][]dataset.Record)
	for i := range recs {
		v := recs[i].Vendor
		byVendor[v] = append(byVendor[v], recs[i])
	}
	vendors := make([]string, 0, len(byVendor))
	for v := range byVendor {
		vendors = append(vendors, v)
	}
	sort.Strings(vendors)

	var out []serve.Assessment
	for _, v := range vendors {
		batch := byVendor[v]
		sc, err := s.EnsureScorer(v, opts)
		if err != nil {
			stats.NoModel += len(batch)
			continue
		}
		var as []serve.Assessment
		var sst serve.SweepStats
		retries, err := s.retryTransient(func() error {
			var oerr error
			as, sst, oerr = sc.ObserveDay(batch)
			return oerr
		})
		stats.Retries += retries
		if err != nil {
			return nil, stats, fmt.Errorf("fleetops: vendor %s sweep: %w", v, err)
		}
		stats.SweepStats.Add(sst)
		out = append(out, as...)
	}
	return out, stats, nil
}
