package serve

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/firmware"
)

// runDaysStats is runDays plus aggregated sweep stats.
func runDaysStats(t *testing.T, s *Scorer, batches [][]dataset.Record) ([]Assessment, SweepStats) {
	t.Helper()
	var out []Assessment
	var total SweepStats
	for _, batch := range batches {
		as, st, err := s.ObserveDay(batch)
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Records; got != len(batch) {
			t.Fatalf("stats.Records = %d for a %d-record batch", got, len(batch))
		}
		out = append(out, as...)
		total.Add(st)
	}
	return out, total
}

// corruptBatches applies a seeded campaign to every day batch.
func corruptBatches(batches [][]dataset.Record, seed int64, rate float64) ([][]dataset.Record, []faultinject.Corruption) {
	c := faultinject.NewRecordCorruptor(faultinject.CorruptorConfig{Seed: seed, Rate: rate})
	out := make([][]dataset.Record, len(batches))
	var log []faultinject.Corruption
	for i, b := range batches {
		var l []faultinject.Corruption
		out[i], l = c.Corrupt(b)
		log = append(log, l...)
	}
	return out, log
}

// TestCorruptionCampaignIsolatesDrives is the tentpole acceptance
// test: a seeded corruption campaign over the whole collection window
// completes without a single batch error, quarantines exactly the
// touched drives, leaves every untouched drive's assessments
// bit-identical to a clean run, and produces the same ledger at every
// worker/shard combination.
func TestCorruptionCampaignIsolatesDrives(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")

	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	cleanAs := runDays(t, clean, batches)
	cleanBySN := make(map[string][]Assessment)
	for _, a := range cleanAs {
		cleanBySN[a.SerialNumber] = append(cleanBySN[a.SerialNumber], a)
	}

	const seed, rate = 17, 0.02
	dirty, clog := corruptBatches(batches, seed, rate)
	if len(clog) == 0 {
		t.Fatal("campaign injected nothing; raise the rate")
	}
	touched := make(map[string]bool)
	for _, c := range clog {
		touched[c.SerialNumber] = true
	}
	if len(touched) == len(cleanBySN) {
		t.Fatal("campaign touched every drive; nothing left to prove isolation with")
	}

	var firstLedger []QuarantineEntry
	var firstAs []Assessment
	for _, tc := range []struct{ workers, shards int }{{1, 1}, {0, 32}, {3, 5}} {
		s, err := New(model, Options{Workers: tc.workers, Shards: tc.shards, Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		// Run the batches by hand so quarantine can be tracked per
		// batch: once a drive has produced a Quarantined entry, no
		// later batch may score it.
		var got []Assessment
		var stats SweepStats
		quarSet := make(map[string]bool)
		for bi, batch := range dirty {
			as, st, err := s.ObserveDay(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range as {
				a := &as[i]
				if quarSet[a.SerialNumber] && !a.Quarantined {
					t.Fatalf("workers=%d shards=%d: batch %d scored drive %s after quarantine: %+v", tc.workers, tc.shards, bi, a.SerialNumber, *a)
				}
			}
			for i := range as {
				if as[i].Quarantined {
					quarSet[as[i].SerialNumber] = true
				}
			}
			got = append(got, as...)
			stats.Add(st)
		}

		// Every quarantined drive must have been touched by the
		// campaign, and the sweep must have quarantined at least one.
		ledger := s.QuarantineReasons()
		if len(ledger) == 0 {
			t.Fatalf("workers=%d shards=%d: campaign quarantined nothing", tc.workers, tc.shards)
		}
		for _, e := range ledger {
			if !touched[e.SerialNumber] {
				t.Fatalf("workers=%d shards=%d: untouched drive %s quarantined: %+v", tc.workers, tc.shards, e.SerialNumber, e)
			}
		}
		if stats.Quarantined != len(ledger) {
			t.Fatalf("workers=%d shards=%d: stats counted %d quarantines, ledger holds %d", tc.workers, tc.shards, stats.Quarantined, len(ledger))
		}

		// Untouched drives score bit-identically to the clean run.
		gotBySN := make(map[string][]Assessment)
		for _, a := range got {
			gotBySN[a.SerialNumber] = append(gotBySN[a.SerialNumber], a)
		}
		for sn, want := range cleanBySN {
			if touched[sn] {
				continue
			}
			gotSN := gotBySN[sn]
			if len(gotSN) != len(want) {
				t.Fatalf("workers=%d shards=%d: healthy drive %s: %d assessments, clean run had %d", tc.workers, tc.shards, sn, len(gotSN), len(want))
			}
			for i := range want {
				a, b := gotSN[i], want[i]
				if a.Day != b.Day || a.Flagged != b.Flagged || a.Dropped != b.Dropped ||
					math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
					t.Fatalf("workers=%d shards=%d: healthy drive %s assessment %d: %+v vs clean %+v", tc.workers, tc.shards, sn, i, a, b)
				}
			}
		}

		// Ledger and full output replay identically across
		// concurrency settings.
		if firstLedger == nil {
			firstLedger, firstAs = ledger, got
			continue
		}
		if !reflect.DeepEqual(ledger, firstLedger) {
			t.Fatalf("workers=%d shards=%d: ledger differs from first run", tc.workers, tc.shards)
		}
		if len(got) != len(firstAs) {
			t.Fatalf("workers=%d shards=%d: %d assessments, first run had %d", tc.workers, tc.shards, len(got), len(firstAs))
		}
		for i := range got {
			a, b := got[i], firstAs[i]
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers=%d shards=%d: assessment %d differs: %+v vs %+v", tc.workers, tc.shards, i, a, b)
			}
		}
	}
}

// TestDegradedFallbackAndRecovery: a scoring-backend fault swings the
// day onto the SMART-threshold detector — flagged rows carry Degraded
// — and the next healthy day recovers with scores bit-identical to a
// never-faulted run (the rolling feature state advances regardless of
// how the day was scored).
func TestDegradedFallbackAndRecovery(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")

	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	want := runDays(t, clean, batches[:3])

	faults := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 1, ScoreFirst: 1})
	s, err := New(model, Options{Registries: regs, Faults: FaultHooks{Score: faults.Score}})
	if err != nil {
		t.Fatal(err)
	}

	day0, st0, err := s.ObserveDay(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("scorer not degraded after a score fault")
	}
	if st0.Degraded != st0.Scored || st0.Scored == 0 {
		t.Fatalf("degraded day stats: %+v", st0)
	}
	for i := range day0 {
		if day0[i].Dropped || day0[i].Quarantined {
			continue
		}
		if !day0[i].Degraded {
			t.Fatalf("assessment %d of degraded day not marked: %+v", i, day0[i])
		}
		if p := day0[i].Probability; p != 0 && p != 1 {
			t.Fatalf("fallback detector emitted non-binary probability %v", p)
		}
	}

	// Recovery: subsequent days score exactly as the clean run did.
	rest, _ := runDaysStats(t, s, batches[1:3])
	if s.Degraded() {
		t.Fatal("scorer still degraded after a healthy batch")
	}
	wantRest := want[len(want)-len(rest):]
	for i := range rest {
		a, b := rest[i], wantRest[i]
		if a.Degraded {
			t.Fatalf("post-recovery assessment still degraded: %+v", a)
		}
		if a.SerialNumber != b.SerialNumber || a.Day != b.Day ||
			math.Float64bits(a.Probability) != math.Float64bits(b.Probability) {
			t.Fatalf("post-recovery assessment %d: %+v vs clean %+v", i, a, b)
		}
	}
}

// TestObserveFaultIsRetrySafe: a transient observe fault fires before
// any state mutates, so retrying the same batch converges on output
// bit-identical to a never-faulted run.
func TestObserveFaultIsRetrySafe(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")[:5]

	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	want := runDays(t, clean, batches)

	faults := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 3, ObserveFirst: 2, ObserveP: 0.3})
	s, err := New(model, Options{Registries: regs, Faults: FaultHooks{Observe: faults.Observe}})
	if err != nil {
		t.Fatal(err)
	}
	var got []Assessment
	retries := 0
	for _, batch := range batches {
		for {
			as, _, err := s.ObserveDay(batch)
			if err == nil {
				got = append(got, as...)
				break
			}
			if !faultinject.IsTransient(err) {
				t.Fatalf("observe fault not transient: %v", err)
			}
			retries++
			if retries > 100 {
				t.Fatal("retry loop did not converge")
			}
		}
	}
	if retries < 2 {
		t.Fatalf("only %d retries; forced faults did not fire", retries)
	}
	if len(got) != len(want) {
		t.Fatalf("%d assessments after retries, clean run had %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("assessment %d: %+v vs clean %+v", i, got[i], want[i])
		}
	}
}

// TestSwapFaultKeepsModelServing: a failed UpdateModel leaves the old
// model scoring and a later push succeeds.
func TestSwapFaultKeepsModelServing(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")

	faults := faultinject.NewScorerFaults(faultinject.ScorerConfig{Seed: 5, SwapFirst: 1})
	s, err := New(model, Options{Registries: regs, Faults: FaultHooks{Swap: faults.Swap}})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	want := runDays(t, clean, batches[:2])

	got := runDays(t, s, batches[:1])
	if err := s.UpdateModel(model); err == nil {
		t.Fatal("injected swap fault did not surface")
	} else if !faultinject.IsTransient(err) {
		t.Fatalf("swap fault not transient: %v", err)
	}
	got = append(got, runDays(t, s, batches[1:2])...)
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("assessment %d after failed swap: %+v vs %+v", i, got[i], want[i])
		}
	}
	if err := s.UpdateModel(model); err != nil {
		t.Fatalf("retried swap failed: %v", err)
	}
}

// TestReviveDrive: quarantine a drive via a duplicate day, revive it,
// and watch it score again as a fresh series while ReviveDrive refuses
// healthy or unknown drives.
func TestReviveDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ObserveDay(batches[0]); err != nil {
		t.Fatal(err)
	}
	sn := batches[0][0].SerialNumber
	if s.ReviveDrive(sn) {
		t.Fatal("ReviveDrive accepted a healthy drive")
	}
	if s.ReviveDrive("no-such-drive") {
		t.Fatal("ReviveDrive accepted an unknown drive")
	}

	// Re-feed the drive's day-0 record: duplicate day, quarantine.
	_, st, err := s.ObserveDay(batches[0][:1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 {
		t.Fatalf("duplicate day did not quarantine: %+v", st)
	}
	if e, ok := s.Quarantined(sn); !ok || e.Reason != QuarantineRollingError {
		t.Fatalf("Quarantined(%s) = %+v, %v", sn, e, ok)
	}

	// While quarantined, its records are skipped.
	var next dataset.Record
	found := false
	for _, b := range batches[1:] {
		for i := range b {
			if b[i].SerialNumber == sn {
				next, found = b[i], true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatalf("fixture has no later record for %s", sn)
	}
	as, st, err := s.ObserveDay([]dataset.Record{next})
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || !as[0].Quarantined {
		t.Fatalf("quarantined drive's record not skipped: %+v %+v", st, as)
	}

	if !s.ReviveDrive(sn) {
		t.Fatal("ReviveDrive refused a quarantined drive")
	}
	if _, ok := s.Quarantined(sn); ok {
		t.Fatal("revived drive still in ledger")
	}
	// The revived drive starts a fresh series: its next record is
	// accepted and scored.
	as, st, err = s.ObserveDay([]dataset.Record{next})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scored == 0 || as[0].Quarantined || as[0].Dropped {
		t.Fatalf("revived drive did not score: %+v %+v", st, as)
	}
}

// TestStrictFirmwareQuarantine: under StrictFirmware a version missing
// from the vendor registry quarantines the drive; the permissive
// default mints a first-seen code and scores it.
func TestStrictFirmwareQuarantine(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	bad := make([]dataset.Record, len(batches[0]))
	copy(bad, batches[0])
	bad[0] = bad[0].Clone()
	bad[0].Firmware = firmware.Version("99.99.99-bogus")

	strict, err := New(model, Options{Registries: regs, StrictFirmware: true})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := strict.ObserveDay(bad)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 {
		t.Fatalf("strict scorer stats: %+v", st)
	}
	if e, ok := strict.Quarantined(bad[0].SerialNumber); !ok || e.Reason != QuarantineUnknownFirmware {
		t.Fatalf("ledger entry %+v, %v", e, ok)
	}

	lax, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err = lax.ObserveDay(bad)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 0 {
		t.Fatalf("permissive scorer quarantined: %+v", st)
	}
}

// TestReplayFrameQuarantinesBadDrive: a drive whose history conflicts
// with already-ingested state quarantines during replay instead of
// failing the whole bootstrap.
func TestReplayFrameQuarantinesBadDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	splitIdx := len(batches) - 7
	splitDay := batches[splitIdx][0].Day
	hist := fleet.Data.Until(splitDay - 1)

	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	// Observe one drive at the split day first; its replay rows are now
	// out of order while every other drive replays cleanly.
	var probe []dataset.Record
	for i := range batches[splitIdx] {
		probe = append(probe[:0], batches[splitIdx][i])
		break
	}
	if _, _, err := s.ObserveDay(probe); err != nil {
		t.Fatal(err)
	}
	stats, err := s.ReplayFrame(hist.FilterVendor("I"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 1 {
		t.Fatalf("replay stats %+v, want exactly the probe drive quarantined", stats)
	}
	if e, ok := s.Quarantined(probe[0].SerialNumber); !ok || e.Reason != QuarantineRollingError {
		t.Fatalf("probe drive ledger entry %+v, %v", e, ok)
	}
	if stats.Drives < 2 || stats.Records == 0 {
		t.Fatalf("other drives did not replay: %+v", stats)
	}
}

// TestMidSessionOpsDeterministic pins the satellite contract: model
// swaps, drive resets, and revives issued mid-session produce
// identical output at every worker/shard combination.
func TestMidSessionOpsDeterministic(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	half := len(batches) / 2
	resetSN := batches[0][0].SerialNumber

	swapped := *model
	swapped.Threshold = model.Threshold * 0.5

	run := func(workers, shards int) []Assessment {
		s, err := New(model, Options{Workers: workers, Shards: shards, Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		out := runDays(t, s, batches[:half])
		if err := s.UpdateModel(&swapped); err != nil {
			t.Fatal(err)
		}
		if !s.ResetDrive(resetSN) {
			t.Fatalf("ResetDrive(%s) found nothing", resetSN)
		}
		return append(out, runDays(t, s, batches[half:])...)
	}

	first := run(1, 1)
	for _, tc := range []struct{ workers, shards int }{{0, 32}, {3, 5}} {
		got := run(tc.workers, tc.shards)
		if len(got) != len(first) {
			t.Fatalf("workers=%d shards=%d: %d assessments, serial run had %d", tc.workers, tc.shards, len(got), len(first))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], first[i]) {
				t.Fatalf("workers=%d shards=%d: assessment %d differs: %+v vs %+v", tc.workers, tc.shards, i, got[i], first[i])
			}
		}
	}
}

// bySerial groups assessments per drive, keeping each drive's order.
func bySerial(as []Assessment) map[string][]Assessment {
	out := make(map[string][]Assessment)
	for _, a := range as {
		out[a.SerialNumber] = append(out[a.SerialNumber], a)
	}
	return out
}

// TestObserveDayNaNQuarantinesOnlyItsDrive: a NaN record partway
// through a batch quarantines only its drive; every other drive's
// assessments, on that day and all later ones, are bit-identical to a
// clean feed.
func TestObserveDayNaNQuarantinesOnlyItsDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	if len(batches[0]) < 3 {
		t.Skip("fleet too small for a mixed batch")
	}
	dirty := append([][]dataset.Record(nil), batches...)
	dirty[0] = append([]dataset.Record(nil), batches[0]...)
	mid := len(dirty[0]) / 2
	bad := dirty[0][mid].SerialNumber
	dirty[0][mid] = dirty[0][mid].Clone()
	dirty[0][mid].Smart[0] = math.NaN()

	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	want := bySerial(runDays(t, clean, batches))
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	got := bySerial(runDays(t, s, dirty))

	if e, ok := s.Quarantined(bad); !ok || e.Reason != QuarantineBadValue {
		t.Fatalf("NaN drive ledger entry %+v, %v", e, ok)
	}
	if ledger := s.QuarantineReasons(); len(ledger) != 1 {
		t.Fatalf("ledger holds %d drives, want only the NaN drive", len(ledger))
	}
	for _, a := range got[bad] {
		if !a.Quarantined {
			t.Fatalf("NaN drive scored: %+v", a)
		}
	}
	delete(got, bad)
	delete(want, bad)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a NaN record changed other drives' assessments")
	}
}

// TestChaosBatchShapeInvariance feeds the same corrupted telemetry in
// three batch shapes — day-major batches, one record per call, and one
// drive's whole series per call — and requires identical per-drive
// assessments (explanations included), quarantine ledger and summed
// sweep stats, at workers 1 and N and shards 1 and 32.
func TestChaosBatchShapeInvariance(t *testing.T) {
	fleet, model, regs := setup(t)
	dirty, clog := corruptBatches(dayBatches(fleet, "I"), 29, 0.02)
	if len(clog) == 0 {
		t.Fatal("campaign injected nothing; raise the rate")
	}
	var stream []dataset.Record
	for _, b := range dirty {
		stream = append(stream, b...)
	}
	var perRecord, perDrive [][]dataset.Record
	seriesOf := make(map[string]int)
	for _, rec := range stream {
		perRecord = append(perRecord, []dataset.Record{rec})
		i, ok := seriesOf[rec.SerialNumber]
		if !ok {
			i = len(perDrive)
			seriesOf[rec.SerialNumber] = i
			perDrive = append(perDrive, nil)
		}
		perDrive[i] = append(perDrive[i], rec)
	}
	shapes := []struct {
		name    string
		batches [][]dataset.Record
	}{{"day-major", dirty}, {"per-record", perRecord}, {"per-drive", perDrive}}

	var firstAs map[string][]Assessment
	var firstLedger []QuarantineEntry
	var firstStats SweepStats
	for _, tc := range []struct{ workers, shards int }{{1, 1}, {1, 32}, {0, 32}} {
		for _, shape := range shapes {
			s, err := New(model, Options{Workers: tc.workers, Shards: tc.shards, Registries: regs, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			as, stats := runDaysStats(t, s, shape.batches)
			flagged, alarmed := 0, 0
			for _, a := range as {
				if a.Flagged {
					flagged++
				}
				if a.Alarmed && !a.Dropped && !a.Quarantined {
					alarmed++
				}
			}
			if stats.Flagged != flagged || stats.Alarmed != alarmed {
				t.Fatalf("workers=%d shards=%d %s: stats count %d flagged / %d alarmed, assessments %d / %d",
					tc.workers, tc.shards, shape.name, stats.Flagged, stats.Alarmed, flagged, alarmed)
			}
			got, ledger := bySerial(as), s.QuarantineReasons()
			if firstAs == nil {
				if len(ledger) == 0 || flagged == 0 {
					t.Fatalf("fixture quarantined %d drives and flagged %d rows; nothing to compare", len(ledger), flagged)
				}
				firstAs, firstLedger, firstStats = got, ledger, stats
				continue
			}
			if !reflect.DeepEqual(ledger, firstLedger) {
				t.Fatalf("workers=%d shards=%d %s: ledger differs", tc.workers, tc.shards, shape.name)
			}
			if !reflect.DeepEqual(got, firstAs) {
				t.Fatalf("workers=%d shards=%d %s: per-drive assessments differ", tc.workers, tc.shards, shape.name)
			}
			if stats != firstStats {
				t.Fatalf("workers=%d shards=%d %s: stats %+v, first run %+v", tc.workers, tc.shards, shape.name, stats, firstStats)
			}
		}
	}
}

// TestReplayFrameStrictFirmwareQuarantine: under StrictFirmware a
// history drive with a version missing from its vendor's registry is
// quarantined by ReplayFrame exactly as ObserveDay would, so bootstrap
// plus sweep ends with the ledger of sweeping every day from scratch.
func TestReplayFrameStrictFirmwareQuarantine(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	splitIdx := len(batches) - 7
	dirty := append([][]dataset.Record(nil), batches...)
	dirty[5] = append([]dataset.Record(nil), batches[5]...)
	bad := dirty[5][0].SerialNumber
	dirty[5][0] = dirty[5][0].Clone()
	dirty[5][0].Firmware = firmware.Version("99.99.99-bogus")
	opts := Options{Registries: regs, StrictFirmware: true}

	scratch, err := New(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, scratch, dirty)
	want := scratch.QuarantineReasons()
	if e, ok := scratch.Quarantined(bad); !ok || e.Reason != QuarantineUnknownFirmware {
		t.Fatalf("sweep ledger entry %+v, %v", e, ok)
	}

	// Regroup the day-major history by drive for the frame builder.
	var order []string
	byDrive := make(map[string][]dataset.Record)
	for _, b := range dirty[:splitIdx] {
		for i := range b {
			sn := b[i].SerialNumber
			if _, seen := byDrive[sn]; !seen {
				order = append(order, sn)
			}
			byDrive[sn] = append(byDrive[sn], b[i])
		}
	}
	hist := dataset.NewFrameBuilder()
	for _, sn := range order {
		for _, r := range byDrive[sn] {
			if err := hist.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	frame := hist.Finish()
	boot, err := New(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := boot.ReplayFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	tail := runDays(t, boot, dirty[splitIdx:])
	if got := boot.QuarantineReasons(); !reflect.DeepEqual(got, want) {
		t.Fatalf("bootstrap ledger %+v, from-scratch ledger %+v", got, want)
	}
	if st.Quarantined != 1 {
		t.Fatalf("replay stats %+v, want the bogus-firmware drive quarantined", st)
	}
	for _, a := range bySerial(tail)[bad] {
		if !a.Quarantined {
			t.Fatalf("bogus-firmware drive scored after bootstrap: %+v", a)
		}
	}
}
