package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/simfleet"
)

// ServeSpeedup compares the incremental sharded scoring engine against
// the seed serving path on one operational workload. Costs are
// normalised per delivered drive-day so sessions that replay different
// record counts stay comparable.
type ServeSpeedup struct {
	Seed              Result  `json:"seed"`
	Serve             Result  `json:"serve"`
	SeedNsPerDriveDay float64 `json:"seed_ns_per_drive_day"`
	ServeNsPerDrDay   float64 `json:"serve_ns_per_drive_day"`
	TimeRatio         float64 `json:"time_ratio"`
}

// ServeReport is the BENCH_serve.json schema.
type ServeReport struct {
	GoVersion   string                  `json:"go_version"`
	GoMaxProcs  int                     `json:"go_max_procs"`
	GeneratedAt string                  `json:"generated_at"`
	Dataset     map[string]int          `json:"dataset"`
	Benchmarks  []Result                `json:"benchmarks"`
	Speedups    map[string]ServeSpeedup `json:"speedups"`
}

func serveRatio(seed Result, seedRows int, srv Result, srvRows int) ServeSpeedup {
	s := ServeSpeedup{Seed: seed, Serve: srv}
	if seedRows > 0 {
		s.SeedNsPerDriveDay = seed.NsPerOp / float64(seedRows)
	}
	if srvRows > 0 {
		s.ServeNsPerDrDay = srv.NsPerOp / float64(srvRows)
	}
	if s.ServeNsPerDrDay > 0 {
		s.TimeRatio = s.SeedNsPerDriveDay / s.ServeNsPerDrDay
	}
	return s
}

// runServeBench measures the serving data plane on its operational
// workload: a scoring session that must deliver the last serveDays days
// of fleet assessments. The seed path has no persistent preprocessing
// state, so every session replays the drive's entire history through
// per-record Observe calls — O(history) work per served day. The
// incremental engine bulk-loads history once through the frame-native
// ReplayFrame catch-up (no scoring) and then serves each day with O(1)
// work per drive via sharded, batch-scored ObserveDay. Both paths are
// score-equivalent (checked here before timing, and pinned bit-exactly
// by the internal/features and internal/serve equivalence suites).
func runServeBench(path string, scale float64) {
	const serveDays = 7

	fleetCfg := simfleet.DefaultConfig()
	fleetCfg.Seed = 1
	fleetCfg.FailureScale = scale
	fleet, err := simfleet.Simulate(fleetCfg)
	if err != nil {
		log.Fatal(err)
	}
	frame, err := dataset.FrameFromDataset(fleet.Data)
	if err != nil {
		log.Fatal(err)
	}
	model, _, err := core.TrainOnFrame(frame, fleet.Tickets, core.DefaultConfig("I"))
	if err != nil {
		log.Fatal(err)
	}
	policy := dataset.DefaultGapPolicy()

	// Vendor I's records, day-major (the serving arrival order), split
	// into history and the serve window.
	byDay := make(map[int][]dataset.Record)
	var days []int
	drives, records := 0, 0
	fleet.Data.Each(func(s *dataset.DriveSeries) {
		if s.Vendor != "I" {
			return
		}
		drives++
		records += len(s.Records)
		for i := range s.Records {
			d := s.Records[i].Day
			if len(byDay[d]) == 0 {
				days = append(days, d)
			}
			byDay[d] = append(byDay[d], s.Records[i])
		}
	})
	sort.Ints(days)
	splitIdx := len(days) - serveDays
	splitDay := days[splitIdx]
	window := make([][]dataset.Record, 0, serveDays)
	windowRecords := 0
	for _, d := range days[splitIdx:] {
		window = append(window, byDay[d])
		windowRecords += len(byDay[d])
	}
	hist, err := dataset.FrameFromDataset(fleet.Data.Until(splitDay - 1))
	if err != nil {
		log.Fatal(err)
	}
	histFrame := hist.FilterVendor("I")

	newScorer := func(workers int) *serve.Scorer {
		sc, err := serve.New(model, serve.Options{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		return sc
	}
	serveSession := func(sc *serve.Scorer) []serve.Assessment {
		if _, err := sc.ReplayFrame(histFrame); err != nil {
			log.Fatal(err)
		}
		var out []serve.Assessment
		for _, batch := range window {
			as, _, err := sc.ObserveDay(batch)
			if err != nil {
				log.Fatal(err)
			}
			out = append(out, as...)
		}
		return out
	}
	seedSession := func() map[[2]interface{}]float64 {
		ag, err := agent.New(model, agent.Options{GapPolicy: policy})
		if err != nil {
			log.Fatal(err)
		}
		out := make(map[[2]interface{}]float64)
		for _, d := range days {
			for _, rec := range byDay[d] {
				as, err := ag.Observe(rec)
				if err != nil {
					log.Fatal(err)
				}
				if d >= splitDay && !as.Dropped {
					out[[2]interface{}{as.SerialNumber, as.Day}] = as.Probability
				}
			}
		}
		return out
	}

	// Equivalence gate: the two paths must deliver bit-identical
	// serve-window scores before their times mean anything.
	served := serveSession(newScorer(0))
	windowRows := 0
	seedScores := seedSession()
	for i := range served {
		if served[i].Dropped {
			continue
		}
		windowRows++
		if served[i].Interpolated {
			continue // Observe only reports the record's own day
		}
		want, ok := seedScores[[2]interface{}{served[i].SerialNumber, served[i].Day}]
		if !ok || math.Float64bits(want) != math.Float64bits(served[i].Probability) {
			log.Fatalf("serve bench: %s day %d: sharded score %v, seed path %v",
				served[i].SerialNumber, served[i].Day, served[i].Probability, want)
		}
	}

	fmt.Printf("serving benchmarks: %d vendor-I drives, %d history records, %d-day serve window (%d drive-days delivered per session)\n",
		drives, records-windowRecords, serveDays, windowRows)

	gcBench := func(name string, fn func(b *testing.B)) Result {
		runtime.GC()
		return benchFn(name, fn)
	}

	seedReplay := gcBench("ServeSession/observe_full_replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seedSession()
		}
	})
	session1 := gcBench("ServeSession/bootstrap_daily/workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serveSession(newScorer(1))
		}
	})
	sessionP := gcBench("ServeSession/bootstrap_daily/parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serveSession(newScorer(0))
		}
	})
	// Steady state: a scorer that is already caught up serves one more
	// window. The bootstrap runs off the clock, so this is the pure
	// per-day marginal cost — the number a long-running sweep pays.
	daily1 := gcBench("ServeSteadyState/daily/workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sc := newScorer(1)
			if _, err := sc.ReplayFrame(histFrame); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, batch := range window {
				if _, _, err := sc.ObserveDay(batch); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	report := ServeReport{
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Dataset: map[string]int{
			"drives":          drives,
			"records":         records,
			"serve_days":      serveDays,
			"delivered_rows":  windowRows,
			"history_records": records - windowRecords,
		},
		Benchmarks: []Result{seedReplay, session1, sessionP, daily1},
		Speedups: map[string]ServeSpeedup{
			// Whole sessions deliver the same windowRows drive-days, so
			// these ratios are plain wall-clock ratios.
			"daily_sweep_serial":   serveRatio(seedReplay, windowRows, session1, windowRows),
			"daily_sweep_parallel": serveRatio(seedReplay, windowRows, sessionP, windowRows),
			// Marginal per-drive-day cost: the seed path's is its whole
			// replay spread over every row it scored, the engine's is
			// the caught-up ObserveDay window alone.
			"steady_state_serial": serveRatio(seedReplay, records, daily1, windowRows),
		},
	}

	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	for _, key := range []string{"daily_sweep_serial", "daily_sweep_parallel", "steady_state_serial"} {
		s := report.Speedups[key]
		fmt.Printf("%-30s %6.2fx faster per delivered drive-day (%.0f ns -> %.0f ns)\n",
			key, s.TimeRatio, s.SeedNsPerDriveDay, s.ServeNsPerDrDay)
	}
	fmt.Printf("written to %s\n", path)
}
