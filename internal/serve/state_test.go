package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/atomicio"
	"repro/internal/baselines"
	"repro/internal/bsod"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/winevent"
)

// fuzzModel is the cheapest valid flat model: the SMART-threshold
// baseline classifier under the default configuration. The state tests
// that need no trained model (decoding, fixtures, fuzzing) use it.
func fuzzModel(tb testing.TB) *core.Model {
	tb.Helper()
	return &core.Model{
		Config:     core.DefaultConfig("I"),
		Classifier: baselines.ThresholdDetector{},
		Threshold:  0.5,
	}
}

// restart saves s and restores the state into a fresh scorer built by
// mk, as a process restart would.
func restart(t *testing.T, s *Scorer, mk func() *Scorer) *Scorer {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	next := mk()
	if err := next.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	return next
}

// TestStateFileCheckpointCrashSafe: SaveStateFile is the power-loss
// path — a checkpoint killed mid-write must leave the previous file
// intact, and LoadStateFile of the survivor must restore the scorer.
func TestStateFileCheckpointCrashSafe(t *testing.T) {
	fleet, model, regs := setup(t)

	// Accumulate the whole vendor fleet so the checkpoint comfortably
	// exceeds the injector's short-write window (≤ 4 KiB).
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	runDays(t, s, dayBatches(fleet, "I"))
	path := filepath.Join(t.TempDir(), "scorer.state")
	if err := s.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(good) <= 4096 {
		t.Fatalf("checkpoint only %d bytes; too small to outrun the injector", len(good))
	}

	// Kill subsequent checkpoints mid-write and at the publish step;
	// the good checkpoint must survive both.
	io := faultinject.NewIOFaults(faultinject.IOConfig{Seed: 3, ShortWriteP: 1})
	restore := atomicio.SetHooks(io.Hooks())
	err = s.SaveStateFile(path)
	restore()
	if err == nil {
		t.Fatal("killed checkpoint reported success")
	}
	io = faultinject.NewIOFaults(faultinject.IOConfig{Seed: 3, RenameFailP: 1})
	restore = atomicio.SetHooks(io.Hooks())
	if err := s.SaveStateFile(path); err == nil {
		restore()
		t.Fatal("blocked publish reported success")
	}
	restore()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, good) {
		t.Fatal("crashed checkpoints disturbed the good state file")
	}

	// A different shard count must not change the restored state.
	restored, err := New(model, Options{Registries: regs, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadStateFile(path); err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := restored.SaveState(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), good) {
		t.Fatal("restored scorer state differs from the saved one")
	}
}

// TestStateSurvivesRestart: a drive streamed one record per call,
// restarted halfway, ends with the same score and alarm state as an
// uninterrupted stream.
func TestStateSurvivesRestart(t *testing.T) {
	fleet, model, regs := setup(t)
	faulty, _ := pickDrives(t, fleet)
	series, _ := fleet.Data.Series(faulty)
	if len(series.Records) < 4 {
		t.Skip("series too short")
	}
	half := len(series.Records) / 2
	mk := func() *Scorer {
		s, err := New(model, Options{Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	cont := mk()
	var want []Assessment
	for i := range series.Records {
		want = append(want, observeOne(t, cont, series.Records[i])...)
	}

	first := mk()
	var got []Assessment
	for i := 0; i < half; i++ {
		got = append(got, observeOne(t, first, series.Records[i])...)
	}
	second := restart(t, first, mk)
	for i := half; i < len(series.Records); i++ {
		got = append(got, observeOne(t, second, series.Records[i])...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restart changed the drive's assessments")
	}
}

// TestStateRoundTripWithGapPolicy saves a day-major sweep mid-stream
// under the model's fill/drop policy and checks the restored scorer
// continues bit-identically — including across gaps that straddle the
// save point, which need the previous raw record of the snapshot.
func TestStateRoundTripWithGapPolicy(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	cut := len(batches) / 2
	mk := func() *Scorer {
		s, err := New(model, Options{Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	straight := mk()
	runDays(t, straight, batches[:cut])
	want := runDays(t, straight, batches[cut:])

	saved := mk()
	runDays(t, saved, batches[:cut])
	got := runDays(t, restart(t, saved, mk), batches[cut:])

	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored sweep differs from the uninterrupted one")
	}
	interpolated := false
	for i := range got {
		interpolated = interpolated || got[i].Interpolated
	}
	if !interpolated {
		t.Fatal("fixture tail produced no mean-filled rows; restart-under-fill untested")
	}
}

// TestStateFileKeepsQuarantine: version 3 carries the quarantine
// ledger, so a restart does not un-quarantine a corrupt drive.
func TestStateFileKeepsQuarantine(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	dirty, _ := corruptBatches(batches, 17, 0.02)
	cut := len(dirty) / 2
	mk := func() *Scorer {
		s, err := New(model, Options{Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	straight := mk()
	runDays(t, straight, dirty[:cut])
	want := runDays(t, straight, dirty[cut:])

	saved := mk()
	runDays(t, saved, dirty[:cut])
	if len(saved.QuarantineReasons()) == 0 {
		t.Fatal("campaign quarantined nothing before the restart")
	}
	path := filepath.Join(t.TempDir(), "scorer.state")
	if err := saved.SaveStateFile(path); err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.LoadStateFile(path); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.QuarantineReasons(), saved.QuarantineReasons()) {
		t.Fatal("restart changed the quarantine ledger")
	}
	got := runDays(t, restored, dirty[cut:])
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored sweep differs from the uninterrupted one")
	}
	if !reflect.DeepEqual(restored.QuarantineReasons(), straight.QuarantineReasons()) {
		t.Fatal("final ledger differs from the uninterrupted run")
	}
}

// fixtureRecord is the synthetic telemetry behind testdata/state_v*.json:
// the v2 file was written by the state-v2 writer after days 0–3 of
// drives FX-1 and FX-2; the v1 file is the same state in the v1 layout.
func fixtureRecord(sn string, day int) dataset.Record {
	rec := dataset.Record{SerialNumber: sn, Vendor: "I", Model: "M0", Day: day, Firmware: "IFW-FIXTURE",
		WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts()}
	k := float64(day + len(sn))
	for i := range rec.Smart {
		rec.Smart[i] = k * float64(i+1)
	}
	rec.WCounts[day%len(rec.WCounts)] = k
	rec.BCounts[day%len(rec.BCounts)] = 1
	return rec
}

// TestLoadStateReadsOldVersions restores the v1 and v2 fixtures and
// continues the series: FX-1 after a one-day gap (which needs the
// previous raw record for its mean-fill), FX-2 on consecutive days.
// v2 must continue exactly like an uninterrupted scorer; v1 holds no
// previous record, so FX-1's fill is refused and quarantines it while
// FX-2 still continues exactly.
func TestLoadStateReadsOldVersions(t *testing.T) {
	tail := []dataset.Record{
		fixtureRecord("FX-2", 4),
		fixtureRecord("FX-1", 5), fixtureRecord("FX-2", 5),
		fixtureRecord("FX-2", 6),
	}
	mk := func() *Scorer {
		s, err := New(fuzzModel(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := mk()
	for day := 0; day < 4; day++ {
		if _, _, err := ref.ObserveDay([]dataset.Record{fixtureRecord("FX-1", day), fixtureRecord("FX-2", day)}); err != nil {
			t.Fatal(err)
		}
	}
	want, _, err := ref.ObserveDay(tail)
	if err != nil {
		t.Fatal(err)
	}

	for _, version := range []string{"v1", "v2"} {
		s := mk()
		if err := s.LoadStateFile(filepath.Join("testdata", "state_"+version+".json")); err != nil {
			t.Fatalf("%s: %v", version, err)
		}
		got, _, err := s.ObserveDay(tail)
		if err != nil {
			t.Fatal(err)
		}
		gotFX2, wantFX2 := bySerial(got)["FX-2"], bySerial(want)["FX-2"]
		if !reflect.DeepEqual(gotFX2, wantFX2) {
			t.Fatalf("%s: FX-2 continues %+v, uninterrupted %+v", version, gotFX2, wantFX2)
		}
		switch version {
		case "v1":
			if e, ok := s.Quarantined("FX-1"); !ok || e.Reason != QuarantineRollingError {
				t.Fatalf("v1: FX-1 fill after restore: ledger %+v, %v", e, ok)
			}
		case "v2":
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("v2: continues %+v, uninterrupted %+v", got, want)
			}
		}
	}
}

func TestLoadStateRejectsBadInput(t *testing.T) {
	for _, in := range []string{
		"not json",
		`{"version":9,"group":"SFWB","drives":{}}`,
		`{"version":0,"group":"SFWB","drives":{}}`,
		`{"version":1,"group":"S","drives":{}}`,
		`{"version":1,"group":"SFWB","drives":{"":{}}}`,
		`{"version":1,"group":"SFWB","drives":{"A":{"last_day":-5}}}`,
		`{"version":3,"group":"SFWB","drives":{"A":{"quarantine":{"day":1,"reason":"none"}}}}`,
		`{"version":3,"group":"SFWB","drives":{"A":{"quarantine":{"day":1,"reason":"gremlins"}}}}`,
		`{"version":2,"group":"SFWB","drives":{"A":{"quarantine":{"day":1,"reason":"bad-value"}}}}`,
	} {
		s, err := New(fuzzModel(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadState(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %s", in)
		}
		if len(s.Drives()) != 0 {
			t.Errorf("rejected %s left drives behind", in)
		}
	}
}

// TestLoadStateOnlyAtStartup: restore is refused once an observation
// or a history replay has advanced the scorer.
func TestLoadStateOnlyAtStartup(t *testing.T) {
	fleet, model, regs := setup(t)
	faulty, _ := pickDrives(t, fleet)
	series, _ := fleet.Data.Series(faulty)
	empty := `{"version":3,"group":"SFWB","drives":{}}`

	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadState(strings.NewReader(empty)); err != nil {
		t.Fatalf("startup restore refused: %v", err)
	}
	observeOne(t, s, series.Records[0])
	if err := s.LoadState(strings.NewReader(empty)); err == nil {
		t.Fatal("mid-stream restore accepted")
	}

	hist, err := dataset.FrameFromDataset(fleet.Data.Until(10))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replayed.ReplayFrame(hist.FilterVendor("I")); err != nil {
		t.Fatal(err)
	}
	if err := replayed.LoadState(strings.NewReader(empty)); err == nil {
		t.Fatal("restore after ReplayFrame accepted")
	}
}
