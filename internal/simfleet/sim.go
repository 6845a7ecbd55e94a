package simfleet

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/parallel"
	"repro/internal/smartattr"
	"repro/internal/ticket"
)

// DriveTruth is the ground truth for one simulated drive, used by
// experiments to score predictions and by the figure generators.
type DriveTruth struct {
	SerialNumber string
	Vendor       string
	Model        string
	Firmware     string
	FirmwareSeq  int
	// Faulty reports whether the drive fails during the window.
	Faulty bool
	// Sudden reports a failure with no precursor signal.
	Sudden bool
	// FailDay is the window-relative failure day, -1 when healthy.
	FailDay int
	// FailPowerOnHours is the SMART power-on-hour age at failure
	// (0 when healthy).
	FailPowerOnHours float64
	// Kind is the simulator cohort ("healthy", "smart-noise", "burst",
	// "faulty", "faulty-sudden").
	Kind string
}

// VendorStats summarises one vendor's nominal population for the
// Table VI / Fig. 3 experiments.
type VendorStats struct {
	Name string
	// Population is the nominal fleet size.
	Population int
	// Failures is the number of faulty drives materialised in this run
	// (after Config.FailureScale).
	Failures int
	// NominalFailures is the vendor spec's unscaled failure count.
	NominalFailures int
	// SampledHealthy is the number of healthy drives materialised.
	SampledHealthy int
	// FailuresByFirmwareSeq maps a firmware release sequence number to
	// the count of failures on it.
	FailuresByFirmwareSeq map[int]int
	// PopulationByFirmwareSeq maps a firmware release sequence to the
	// nominal population share running it.
	PopulationByFirmwareSeq map[int]float64
}

// ReplacementRate returns the run's scaled replacement rate: failures
// scaled back to the nominal population.
func (s *VendorStats) ReplacementRate() float64 {
	if s.Population == 0 {
		return 0
	}
	return float64(s.NominalFailures) / float64(s.Population)
}

// Result is one simulated fleet.
type Result struct {
	// Data is the raw (daily-count, discontinuous) telemetry.
	Data *dataset.Frame
	// Tickets is the after-sales RaSRF ticket store.
	Tickets *ticket.Store
	// Truth maps serial number to ground truth.
	Truth map[string]DriveTruth
	// Stats summarises each vendor in spec order.
	Stats []VendorStats
	// Config echoes the configuration that produced the result.
	Config Config
}

// FaultyCount returns the number of faulty drives in the run.
func (res *Result) FaultyCount() int {
	n := 0
	for _, t := range res.Truth {
		if t.Faulty {
			n++
		}
	}
	return n
}

// driveSpec is one drive's assignment, drawn serially from the master
// RNG so the spec sequence is identical at every worker count.
type driveSpec struct {
	sn      string
	vendor  int // index into cfg.Vendors
	stats   int // index into Result.Stats
	kind    kind
	failDay int
}

// serialNumber mints "<vendor>-<tag>NNNNNN" with the index zero-padded
// to six digits — the exact layout fmt.Sprintf("%s-%c%06d", ...) would
// produce — without fmt's argument boxing, which was the single
// largest allocation source in fleet construction.
func serialNumber(vendor string, tag byte, i int) string {
	if i < 0 || i >= 1000000 {
		return fmt.Sprintf("%s-%c%06d", vendor, tag, i)
	}
	var arr [16]byte
	buf := append(arr[:0], vendor...)
	buf = append(buf, '-', tag)
	for div := 100000; div >= 1; div /= 10 {
		buf = append(buf, byte('0'+(i/div)%10))
	}
	return string(buf)
}

// buildSpecs draws every drive's cohort assignment from the master RNG
// in the fixed vendor/serial order, along with the per-vendor stats
// skeletons.
func buildSpecs(cfg *Config, master *rand.Rand) ([]driveSpec, []VendorStats) {
	var specs []driveSpec
	var allStats []VendorStats
	for vi := range cfg.Vendors {
		v := &cfg.Vendors[vi]
		nFaulty := int(math.Round(float64(v.Failures) * cfg.FailureScale))
		if nFaulty < 1 {
			nFaulty = 1
		}
		nHealthy := nFaulty * cfg.HealthyPerFaulty
		stats := VendorStats{
			Name:                    v.Name,
			Population:              v.Population,
			Failures:                nFaulty,
			NominalFailures:         v.Failures,
			SampledHealthy:          nHealthy,
			FailuresByFirmwareSeq:   make(map[int]int),
			PopulationByFirmwareSeq: make(map[int]float64),
		}
		for _, rel := range v.Firmware.Releases() {
			stats.PopulationByFirmwareSeq[rel.Seq] = rel.ShipShare * float64(v.Population)
		}
		si := len(allStats)
		allStats = append(allStats, stats)

		for i := 0; i < nFaulty; i++ {
			k := kindFaulty
			if master.Float64() < cfg.SuddenShare {
				k = kindSudden
			}
			// Failures spread uniformly over the window, but not in
			// the first week: a drive must have some history to be
			// observable at all.
			specs = append(specs, driveSpec{
				sn:      serialNumber(v.Name, 'F', i),
				vendor:  vi,
				stats:   si,
				kind:    k,
				failDay: 7 + master.Intn(cfg.Days-7),
			})
		}
		for i := 0; i < nHealthy; i++ {
			k := kindHealthy
			switch u := master.Float64(); {
			case u < cfg.SmartNoiseShare:
				k = kindSmartNoise
			case u < cfg.SmartNoiseShare+cfg.BurstShare:
				k = kindBurst
			}
			specs = append(specs, driveSpec{
				sn:      serialNumber(v.Name, 'H', i),
				vendor:  vi,
				stats:   si,
				kind:    k,
				failDay: -1,
			})
		}
	}
	return specs, allStats
}

// driveOut is one drive's non-telemetry contribution; its records land
// directly in the shared arena.
type driveOut struct {
	rows   int
	truth  DriveTruth
	fwSeq  int
	ticket ticket.Ticket
}

// Simulate generates a fleet per cfg, writing telemetry straight into
// one columnar arena. The same cfg (including Seed) always yields the
// same result:
//
//   - drive assignments come from a serial master-RNG pass;
//   - each drive's trajectory comes from its own serial-number-seeded
//     RNG, so it does not depend on the order drives run in;
//   - every drive's upper-bound row count is known from its spec alone
//     (failDay+1 when faulty, the full window otherwise), so a serial
//     prefix sum hands each worker a disjoint arena range, and
//     unpowered days simply leave their slack rows untouched;
//   - drives are registered, and truth, stats and tickets collected, in
//     spec order.
//
// The output is therefore bit-identical at any cfg.Workers setting.
func Simulate(cfg Config) (*Result, error) {
	if cfg.Vendors == nil {
		cfg.Vendors = DefaultVendors()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Tickets: ticket.NewStore(),
		Truth:   make(map[string]DriveTruth),
		Config:  cfg,
	}
	master := rand.New(rand.NewSource(cfg.Seed))
	causes := ticket.AllCauses()
	causeWeights := make([]float64, len(causes))
	for i, c := range causes {
		causeWeights[i] = c.Share
	}

	var specs []driveSpec
	specs, res.Stats = buildSpecs(&cfg, master)

	// Size the arena from the specs: a drive observes at most one row
	// per window day, and a faulty one stops at its failure day.
	offs := make([]int, len(specs)+1)
	for i := range specs {
		bound := cfg.Days
		if specs[i].failDay >= 0 {
			bound = specs[i].failDay + 1
		}
		offs[i+1] = offs[i] + bound
	}
	f := dataset.NewFrameArena(offs[len(specs)])

	outs, err := parallel.Map(len(specs), cfg.Workers, func(i int) (driveOut, error) {
		s := specs[i]
		return simulateDriveInto(f, offs[i], s.sn, &cfg.Vendors[s.vendor], s.kind, s.failDay, &cfg, causes, causeWeights), nil
	})
	if err != nil {
		return nil, err
	}

	// Serial merge in spec order: register each drive's row range (the
	// firmware column is stamped here — interning is serial-only) and
	// collect truth, stats, and tickets.
	for i := range outs {
		out := &outs[i]
		if out.rows > 0 {
			start := offs[i]
			f.FillFirmware(start, start+out.rows, firmware.Version(out.truth.Firmware))
			if err := f.AddDrive(out.truth.SerialNumber, out.truth.Vendor, out.truth.Model, start, start+out.rows); err != nil {
				return nil, err
			}
		}
		res.Truth[out.truth.SerialNumber] = out.truth
		if out.truth.Faulty {
			res.Stats[specs[i].stats].FailuresByFirmwareSeq[out.fwSeq]++
			res.Tickets.Add(out.ticket)
		}
	}
	res.Data = f
	return res, nil
}

// simulateDriveInto runs one drive through the window, emitting its
// telemetry into arena rows [off, off+rows), and returns its ground
// truth and (for faulty drives) its trouble ticket. It draws only from
// the drive's own serial-number-seeded RNG (pooled and re-seeded, which
// reproduces a fresh generator's stream exactly), so concurrent drives
// never interact.
func simulateDriveInto(f *dataset.Frame, off int, sn string, v *VendorSpec, k kind, failDay int, cfg *Config, causes []ticket.Cause, causeWeights []float64) driveOut {
	r := rngPool.Get().(*rand.Rand)
	defer rngPool.Put(r)
	r.Seed(driveRNGSeed(cfg.Seed, sn))
	d := newDriveState(r, sn, v, k, failDay, cfg)
	if d.kind == kindBurst {
		d.burstStart = r.Intn(cfg.Days)
	}
	d.placeEpisodes(r, cfg.Days)

	lastDay := cfg.Days - 1
	if d.failDay >= 0 {
		lastDay = d.failDay
	}
	// Some users abandon a flaky machine before it dies outright, so
	// telemetry ends early and the gap to the eventual ticket widens.
	abandoned := false
	if d.failDay >= 0 && cfg.AbandonShare > 0 && r.Float64() < cfg.AbandonShare {
		abandoned = true
		lastDay -= 1 + r.Intn(cfg.AbandonMaxDays)
		if lastDay < 0 {
			lastDay = 0
		}
	}
	var out driveOut
	var failHours float64
	for day := 0; day <= lastDay; day++ {
		powered := r.Float64() < d.usage.onProb[day%7]
		// The machine is certainly on the day it dies: the failure is
		// what the user notices. (Unless the user already gave up on it.)
		if day == d.failDay && !abandoned {
			powered = true
		}
		if !powered {
			continue
		}
		row := off + out.rows
		f.SetDay(row, int32(day))
		smart := (*smartattr.Values)(f.SmartRow(row))
		d.stepDayInto(r, day, cfg, smart, f.WRow(row), f.BRow(row))
		out.rows++
		if d.failDay >= 0 {
			// The age at the last observation approximates the age at
			// death (exact when the final record lands on the failure
			// day, which it does unless the user abandoned the machine).
			failHours = smart.Get(smartattr.PowerOnHours)
		}
	}

	out.truth = DriveTruth{
		SerialNumber:     sn,
		Vendor:           v.Name,
		Model:            d.model.Name,
		Firmware:         string(d.fw.Version),
		FirmwareSeq:      d.fw.Seq,
		Faulty:           k.Faulty(),
		Sudden:           k == kindSudden,
		FailDay:          d.failDay,
		FailPowerOnHours: failHours,
		Kind:             k.String(),
	}

	if k.Faulty() {
		out.fwSeq = d.fw.Seq
		delay := geometricDelay(r, cfg.TicketDelayMeanDays, cfg.TicketDelayMaxDays)
		cause := weightedIndex(r, causeWeights)
		out.ticket = ticket.Ticket{
			SerialNumber: sn,
			IMT:          d.failDay + delay,
			Cause:        cause,
			Description:  causes[cause].Name,
		}
	}
	return out
}

// FrameResult is a Result with the telemetry also under the name Frame.
// It and SimulateFrame keep the benchmark harness under e2ebench/, their
// only caller, compiling; delete both when that harness moves to
// Simulate.
type FrameResult struct {
	*Result
	Frame *dataset.Frame
}

// SimulateFrame is Simulate returning a FrameResult.
func SimulateFrame(cfg Config) (*FrameResult, error) {
	res, err := Simulate(cfg)
	if err != nil {
		return nil, err
	}
	return &FrameResult{Result: res, Frame: res.Data}, nil
}
