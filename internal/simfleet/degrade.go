package simfleet

import (
	"math"
	"math/rand"

	"repro/internal/bsod"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// Per-event emission rates. Index order matches the winevent catalogue.
// baseWRates is the healthy background rate per powered day; peakWRates
// is the additional rate at full degradation ramp (Observation #3:
// faulty drives experience far more W errors before failure).
var (
	baseWRates = []float64{
		0.0010, // W_7   bad block
		0.0008, // W_11  controller error
		0.0030, // W_15  not ready
		0.0040, // W_49  crash dump page file
		0.0010, // W_51  paging error
		0.0001, // W_52  predicted failure
		0.0003, // W_154 IO hardware error
		0.0008, // W_157 surprise removal
		0.0005, // W_161 FS error during IO
	}
	peakWRates = []float64{
		1.2, // W_7
		2.5, // W_11
		0.8, // W_15
		1.0, // W_49
		3.0, // W_51
		0.6, // W_52
		0.9, // W_154
		0.4, // W_157
		2.0, // W_161
	}
	// burstWRates is the transient-burst rate for healthy burst drives:
	// controller/paging/not-ready noise without any BSOD or spare loss.
	burstWRates = []float64{
		0.2,  // W_7
		1.5,  // W_11
		1.0,  // W_15
		0.1,  // W_49
		1.5,  // W_51
		0,    // W_52
		0.3,  // W_154
		0.4,  // W_157
		0.25, // W_161
	}
	// driftWEvents marks the events whose background rate an OS update
	// inflates fleet-wide after Config.DriftStartDay (covariate drift;
	// the mechanism behind the paper's rising FPR in Figs. 12/16).
	driftWEvents = map[winevent.ID]bool{
		winevent.CrashDumpPageFile: true,
		winevent.DiskNotReady:      true,
	}
)

// Per-code BSOD rates. Healthy machines blue-screen occasionally for
// non-storage reasons; faulty drives ramp the storage-related codes
// (Observation #4).
var (
	// baseBRate is the total healthy background BSOD rate per powered
	// day, spread uniformly over the non-storage-related codes.
	baseBRate = 0.0008
	// peakBRates is the additional per-code rate at full ramp, in
	// fixed order so emission stays deterministic for a given seed.
	peakBRates = []struct {
		code bsod.Code
		rate float64
	}{
		{bsod.PageFaultInNonpagedArea, 0.80}, // B_50
		{bsod.KernelDataInpageError, 0.60},   // B_7A
		{bsod.NTFSFileSystem, 0.40},          // B_24
		{bsod.KernelStackInpageError, 0.30},  // B_77
		{bsod.StatusCannotLoad, 0.15},        // B_C00
		{bsod.FATFileSystem, 0.10},           // B_23
		{bsod.ExFATFileSystem, 0.08},         // B_12C
		{bsod.UDFSFileSystem, 0.02},          // B_9B
	}
)

// nonStorageCodes caches the catalogue indexes of non-storage stop codes.
var nonStorageCodes = func() []int {
	var out []int
	for _, info := range bsod.All() {
		if !info.StorageRelated {
			out = append(out, info.Code.Index())
		}
	}
	return out
}()

// driftFactor returns the background-rate multiplier for the drifting
// Windows events on the given day.
func driftFactor(cfg *Config, day int) float64 {
	if cfg.DriftStartDay < 0 || day < cfg.DriftStartDay {
		return 1
	}
	months := float64(day-cfg.DriftStartDay) / 30
	return math.Pow(cfg.DriftMonthlyFactor, months)
}

// stepDayInto advances the drive by one powered-on day and writes the
// telemetry observed at the end of that day into the caller's vectors
// (the drive's arena row).
func (d *driveState) stepDayInto(r *rand.Rand, day int, cfg *Config, smart *smartattr.Values, w winevent.Counts, b bsod.Counts) {
	hours := d.usage.hoursMean * (0.6 + 0.8*r.Float64())
	// The failure ramp drives the system-level W/B channels; the SMART
	// ramp additionally covers scare episodes on severe-noise drives.
	ramp := d.ramp(day)
	sRamp, sPeak, sDrop, sActive := d.smartRamp(day)

	// Workload counters.
	d.hours += hours
	d.cycles += float64(1 + poisson(r, 0.4))
	gbW := hours * d.usage.writeGBPerHour * (0.7 + 0.6*r.Float64())
	gbR := hours * d.usage.readGBPerHour * (0.7 + 0.6*r.Float64())
	d.unitsWrite += gbW * unitsPerGB
	d.unitsRead += gbR * unitsPerGB
	d.hostWrites += gbW * unitsPerGB * (28 + 8*r.Float64())
	d.hostReads += gbR * unitsPerGB * (30 + 8*r.Float64())
	// Controller busy time rises with load, and degrading drives spend
	// extra time on retries and error handling.
	d.busyMin += hours * (2 + 2*r.Float64()) * (1 + 2*sRamp)

	// Reliability counters.
	switch {
	case sActive:
		d.mediaErr += float64(poisson(r, sPeak*math.Pow(sRamp, 1.5)))
		if sDrop > 0 {
			d.spare = math.Max(0, math.Min(d.spare, 100-sDrop*math.Pow(sRamp, 1.5)))
		}
		if sRamp > 0.9 && r.Float64() < 0.1 {
			d.critWarn = 1
		}
		if sRamp > 0.8 {
			d.unsafeShut += float64(poisson(r, 0.15))
		}
	case d.kind == kindSmartNoise:
		d.mediaErr += float64(poisson(r, d.noiseMediaRate))
		d.spare = math.Max(75, d.spare-d.noiseSpareRate*(0.5+r.Float64()))
	case d.inBurst(day):
		d.mediaErr += float64(poisson(r, 0.8))
	default:
		// Rare background media errors on perfectly healthy drives.
		d.mediaErr += float64(poisson(r, 0.0015))
	}
	if d.kind == kindSmartNoise && sActive {
		// Scare episodes ride on top of the cohort's baseline noise.
		d.mediaErr += float64(poisson(r, d.noiseMediaRate))
	}
	d.unsafeShut += float64(poisson(r, 0.012))
	// The error log accumulates media errors (roughly doubled: one
	// entry on detection, one on the retry) plus transient protocol
	// errors tracked separately so the counter stays monotonic.
	d.accumErrLogExtra(r, sRamp, day)
	d.errLog = d.mediaErr*2 + d.extraErrLog

	d.fillSmart(smart, r, hours)
	d.emitW(w, r, ramp, day, cfg)
	d.emitB(b, r, ramp, day)
}

// accumErrLogExtra grows the non-media component of the error log:
// degrading drives log command timeouts and retries beyond media
// errors; bursts log transient resets; healthy drives log the odd
// protocol hiccup.
func (d *driveState) accumErrLogExtra(r *rand.Rand, ramp float64, day int) {
	rate := errLogBaseRate + 1.5*ramp*ramp
	if d.kind == kindSmartNoise {
		// The noise cohort's protocol errors scale with its media noise,
		// keeping its error log as busy as a mildly degrading drive's.
		rate += d.noiseMediaRate * 1.5
	}
	if d.inBurst(day) {
		rate += 1.5
	}
	var n int
	if rate == errLogBaseRate {
		n = poissonSmall(r, expNegErrLogBase)
	} else {
		n = poisson(r, rate)
	}
	d.extraErrLog += float64(n)
}

// fillSmart writes the drive's SMART vector for this observation.
func (d *driveState) fillSmart(s *smartattr.Values, r *rand.Rand, hours float64) {
	s.Set(smartattr.CriticalWarning, d.critWarn)
	// Composite temperature in Kelvin: idle ~310K, plus load and noise.
	temp := 308 + hours*0.4 + 4*r.NormFloat64()
	s.Set(smartattr.CompositeTemperature, math.Max(290, temp))
	s.Set(smartattr.AvailableSpare, d.spare)
	s.Set(smartattr.AvailableSpareThreshold, 10)
	// Percentage used follows rated endurance.
	tbw := d.unitsWrite * 512000 / 1e12
	used := math.Min(255, tbw/d.model.EnduranceTBW*100)
	s.Set(smartattr.PercentageUsed, math.Floor(used))
	s.Set(smartattr.DataUnitsRead, math.Floor(d.unitsRead))
	s.Set(smartattr.DataUnitsWritten, math.Floor(d.unitsWrite))
	s.Set(smartattr.HostReadCommands, math.Floor(d.hostReads))
	s.Set(smartattr.HostWriteCommands, math.Floor(d.hostWrites))
	s.Set(smartattr.ControllerBusyTime, math.Floor(d.busyMin))
	s.Set(smartattr.PowerCycles, math.Floor(d.cycles))
	s.Set(smartattr.PowerOnHours, math.Floor(d.hours))
	s.Set(smartattr.UnsafeShutdowns, math.Floor(d.unsafeShut))
	s.Set(smartattr.MediaErrors, math.Floor(d.mediaErr))
	s.Set(smartattr.ErrorLogEntries, math.Floor(d.errLog))
	s.Set(smartattr.Capacity, d.model.CapacityGB)
}

// wCatalogue caches the Windows event catalogue: All() returns a fresh
// copy, which would otherwise be one allocation per simulated drive-day.
var wCatalogue = winevent.All()

// errLogBaseRate is the healthy background rate of non-media error-log
// entries (protocol hiccups) per powered day.
const errLogBaseRate = 0.01

// Steady-state exponentials for poissonSmall: most drive-days emit at
// the unmodified background rates, so exp(-rate) is computed once here
// instead of once per draw. Values are identical to what poisson would
// compute, keeping every drawn stream bit-exact.
var (
	expNegBaseW = func() []float64 {
		out := make([]float64, len(baseWRates))
		for i, rate := range baseWRates {
			out[i] = math.Exp(-rate)
		}
		return out
	}()
	expNegBaseB      = math.Exp(-baseBRate)
	expNegErrLogBase = math.Exp(-errLogBaseRate)
)

// driftWIdx maps catalogue position to the drift flag so the emission
// loop indexes a slice instead of hashing event IDs per drive-day.
var driftWIdx = func() []bool {
	out := make([]bool, len(wCatalogue))
	for i, info := range wCatalogue {
		out[i] = driftWEvents[info.ID]
	}
	return out
}()

// emitW draws the day's Windows event counts.
func (d *driveState) emitW(counts winevent.Counts, r *rand.Rand, ramp float64, day int, cfg *Config) {
	drift := driftFactor(cfg, day)
	epRamp, epScale := d.wbEpisodeRamp(day)
	burst := d.inBurst(day)
	for i := range wCatalogue {
		rate := baseWRates[i]
		if driftWIdx[i] {
			rate *= drift
		}
		if ramp > 0 {
			rate += peakWRates[i] * d.wScale * ramp * ramp
		}
		if epScale > 0 {
			rate += peakWRates[i] * epScale * epRamp * epRamp
		}
		if burst {
			rate += burstWRates[i]
		}
		var n int
		if rate == baseWRates[i] {
			n = poissonSmall(r, expNegBaseW[i])
		} else {
			n = poisson(r, rate)
		}
		if n > 0 {
			counts[i] += float64(n)
		}
	}
}

// emitB draws the day's BSOD counts.
func (d *driveState) emitB(counts bsod.Counts, r *rand.Rand, ramp float64, day int) {
	// Background non-storage blue screens (drivers, overclocking, RAM).
	if n := poissonSmall(r, expNegBaseB); n > 0 {
		for j := 0; j < n; j++ {
			counts[nonStorageCodes[r.Intn(len(nonStorageCodes))]]++
		}
	}
	if d.inBurst(day) {
		// A transient burst occasionally blue-screens on a storage
		// code too — the driver-level chaos reaches the pager.
		for _, pb := range peakBRates {
			if n := poisson(r, pb.rate*0.12); n > 0 {
				counts[pb.code.Index()] += float64(n)
			}
		}
	}
	if epRamp, epScale := d.wbEpisodeRamp(day); epScale > 0 {
		for _, pb := range peakBRates {
			if n := poisson(r, pb.rate*epScale*epRamp*epRamp); n > 0 {
				counts[pb.code.Index()] += float64(n)
			}
		}
	}
	if ramp <= 0 {
		return
	}
	for _, pb := range peakBRates {
		if n := poisson(r, pb.rate*d.bScale*ramp*ramp); n > 0 {
			counts[pb.code.Index()] += float64(n)
		}
	}
}
