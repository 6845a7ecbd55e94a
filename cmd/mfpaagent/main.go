// Command mfpaagent is the client-side monitor as a CLI: it loads a
// model envelope (from mfpatrain -save or fleetops publishing), replays
// telemetry (from mfpagen, CSV or the MFPAC binary container — the
// format is detected from the file's leading bytes) through the online
// scoring engine, and reports every alarm with its top contributing
// features.
//
// Usage:
//
//	mfpaagent -model model.json -data fleet.csv [-sn I-F000000] [-alarm-after 2] [-workers 0]
//	mfpaagent -model model.json -data fleet.csv -state agent.state
//
// Telemetry replays as it would arrive: day-major batches through the
// sharded serve.Scorer, under the model's own gap policy, with -workers
// goroutines. -state restores the scorer's per-drive state at start
// when the file exists and checkpoints it atomically at exit, so a
// later run continues where this one stopped (its telemetry must then
// start after the checkpointed days). -chaos adds a seeded fault
// campaign — corrupted records, transient batch faults,
// scoring-backend faults — to demonstrate the quarantine and
// degradation machinery; the same seed replays the same campaign.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/modelio"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mfpaagent: ")

	var (
		modelPath  = flag.String("model", "", "model envelope path (required)")
		dataPath   = flag.String("data", "", "telemetry path, CSV or MFPAC (required)")
		sn         = flag.String("sn", "", "replay only this drive (empty = all)")
		alarmAfter = flag.Int("alarm-after", 2, "consecutive flags before alarming")
		workers    = flag.Int("workers", 0, "scoring goroutines (0 = GOMAXPROCS, 1 = serial)")
		statePath  = flag.String("state", "", "scorer state checkpoint: loaded at start if present, saved atomically at exit")
		chaos      = flag.Bool("chaos", false, "run a seeded fault-injection campaign (corrupt records, transient and scoring faults)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "chaos campaign seed; the same seed replays the same faults")
		chaosRate  = flag.Float64("chaos-rate", 0.01, "per-record corruption probability for -chaos")
		verbose    = flag.Bool("v", false, "print every flagged observation, not just alarms")
	)
	flag.Parse()
	if *modelPath == "" || *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	model, err := modelio.LoadFile(*modelPath)
	if err != nil {
		log.Fatal(err)
	}

	df, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	// Either telemetry format loads into the columnar frame.
	data, err := dataset.ReadTelemetryWorkers(df, *workers)
	df.Close()
	if err != nil {
		log.Fatal(err)
	}
	if *sn != "" {
		i, ok := data.DriveIndex(*sn)
		if !ok {
			log.Fatalf("drive %s not in %s", *sn, *dataPath)
		}
		if v := data.Drive(i).Vendor; model.Config.Vendor != "" && v != model.Config.Vendor {
			log.Fatalf("drive %s is vendor %s; the model scores vendor %s drives only", *sn, v, model.Config.Vendor)
		}
	}

	fmt.Printf("agent: %s/%s model, threshold %.3f, alarm after %d flags\n",
		model.TrainerName, model.Config.Group, model.Threshold, *alarmAfter)

	opts := serve.Options{Workers: *workers, AlarmAfter: *alarmAfter, Explain: true}
	var campaign *chaosCampaign
	if *chaos {
		campaign = newChaosCampaign(*chaosSeed, *chaosRate)
		opts.Faults = serve.FaultHooks{
			Observe: campaign.faults.Observe,
			Score:   campaign.faults.Score,
			Swap:    campaign.faults.Swap,
		}
	}
	sc, err := serve.New(model, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *statePath != "" {
		if _, serr := os.Stat(*statePath); serr == nil {
			if err := sc.LoadStateFile(*statePath); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("agent: restored state from %s\n", *statePath)
		}
	}

	// Group the scanned drives' records day-major: the arrival order of
	// a fleet collector, and drive order within a day.
	byDay := make(map[int][]dataset.Record)
	var days []int
	drives := 0
	data.Each(func(s *dataset.DriveSeries) {
		// Only vendor-matched drives can be scored meaningfully.
		if model.Config.Vendor != "" && s.Vendor != model.Config.Vendor {
			return
		}
		if *sn != "" && s.SerialNumber != *sn {
			return
		}
		drives++
		for i := range s.Records {
			d := s.Records[i].Day
			if len(byDay[d]) == 0 {
				days = append(days, d)
			}
			byDay[d] = append(byDay[d], s.Records[i])
		}
	})
	sort.Ints(days)

	alarmed := make(map[string]bool)
	var total serve.SweepStats
	for _, day := range days {
		batch := byDay[day]
		if campaign != nil {
			var clog []faultinject.Corruption
			batch, clog = campaign.corruptor.Corrupt(batch)
			campaign.corrupted += len(clog)
		}
		var as []serve.Assessment
		var st serve.SweepStats
		for attempt := 0; ; attempt++ {
			as, st, err = sc.ObserveDay(batch)
			if err == nil || attempt >= 3 || !faultinject.IsTransient(err) {
				break
			}
			if campaign != nil {
				campaign.retries++
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		total.Add(st)
		for i := range as {
			a := &as[i]
			if *verbose && a.Flagged {
				fmt.Printf("%s day %d: P=%.3f flagged (%d consecutive)\n",
					a.SerialNumber, a.Day, a.Probability, a.ConsecutiveFlags)
			}
			if !a.Alarmed || alarmed[a.SerialNumber] {
				continue
			}
			alarmed[a.SerialNumber] = true
			fmt.Printf("%s day %d: ALARM P=%.3f", a.SerialNumber, a.Day, a.Probability)
			for _, f := range a.TopFactors {
				fmt.Printf("  %s+%.3f", f.Feature, f.Contribution)
			}
			if w, ok := sc.Window(a.SerialNumber); ok && w.Days > 1 {
				fmt.Printf("  [%dd window: %.0f W/d, %.0f B/d, media err +%.0f]",
					w.Days, w.WPerDay, w.BPerDay, w.MediaErrGrowth)
			}
			fmt.Println()
		}
	}
	fmt.Printf("%d drives scanned over %d days: %d scored (%d flagged), %d dropped, %d quarantined, %d alarms\n",
		drives, len(days), total.Scored, total.Flagged, total.Dropped, total.Quarantined, len(alarmed))
	if campaign != nil {
		observe, score, swap := campaign.faults.Fired()
		fmt.Printf("chaos: %d records corrupted, %d observe faults (%d retried), %d score faults, %d swap faults\n",
			campaign.corrupted, observe, campaign.retries, score, swap)
		fmt.Printf("chaos: %d records quarantined their drive, %d skipped while quarantined, %d rows scored degraded\n",
			total.Quarantined, total.Skipped, total.Degraded)
		ledger := sc.QuarantineReasons()
		fmt.Printf("chaos: quarantine ledger holds %d drives\n", len(ledger))
		if *verbose {
			for _, e := range ledger {
				fmt.Printf("  %s day %d: %s (%s)\n", e.SerialNumber, e.Day, e.Reason, e.Err)
			}
		}
	}
	if *statePath != "" {
		if err := sc.SaveStateFile(*statePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("agent: state checkpointed to %s\n", *statePath)
	}
}

// chaosCampaign bundles the seeded injectors for a -chaos run.
type chaosCampaign struct {
	corruptor *faultinject.RecordCorruptor
	faults    *faultinject.ScorerFaults
	corrupted int
	retries   int
}

func newChaosCampaign(seed int64, rate float64) *chaosCampaign {
	return &chaosCampaign{
		corruptor: faultinject.NewRecordCorruptor(faultinject.CorruptorConfig{Seed: seed, Rate: rate}),
		faults: faultinject.NewScorerFaults(faultinject.ScorerConfig{
			Seed: seed, ObserveP: 0.02, ScoreP: 0.02,
		}),
	}
}
