package serve

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/simfleet"
)

// The client-side use of the scorer: one machine's drive, one record
// per ObserveDay call, as an on-machine monitor sees its telemetry.

// observeOne feeds a single record and returns its assessments
// (mean-filled days first, the record's own entry last).
func observeOne(t *testing.T, s *Scorer, rec dataset.Record) []Assessment {
	t.Helper()
	as, _, err := s.ObserveDay([]dataset.Record{rec})
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// streamDrive feeds a drive's raw records one per call and returns
// every assessment plus the day its alarm latched (-1 if never).
func streamDrive(t *testing.T, s *Scorer, fleet *simfleet.Result, sn string) (all []Assessment, alarmedAt int) {
	t.Helper()
	series, ok := fleet.Data.Series(sn)
	if !ok {
		t.Fatalf("drive %s missing", sn)
	}
	alarmedAt = -1
	for i := range series.Records {
		for _, as := range observeOne(t, s, series.Records[i]) {
			if as.Alarmed && alarmedAt == -1 {
				alarmedAt = as.Day
			}
			all = append(all, as)
		}
	}
	return all, alarmedAt
}

// vendorDrives lists the vendor-I drives of one truth kind, sorted.
func vendorDrives(fleet *simfleet.Result, kind string) []string {
	var out []string
	for sn, truth := range fleet.Truth {
		if truth.Vendor == "I" && truth.Kind == kind {
			out = append(out, sn)
		}
	}
	sort.Strings(out)
	return out
}

// pickDrives returns one ramped faulty and one plain healthy vendor-I
// drive.
func pickDrives(t *testing.T, fleet *simfleet.Result) (faulty, healthy string) {
	t.Helper()
	f, h := vendorDrives(fleet, "faulty"), vendorDrives(fleet, "healthy")
	if len(f) == 0 || len(h) == 0 {
		t.Skip("fleet lacks required drive kinds")
	}
	return f[0], h[0]
}

func TestAgentAlarmsOnFailingDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	// Alarm on most ramped faulty drives, before or at failure.
	alarms, checked := 0, 0
	for _, sn := range vendorDrives(fleet, "faulty") {
		checked++
		if _, alarmedAt := streamDrive(t, s, fleet, sn); alarmedAt >= 0 {
			alarms++
			if alarmedAt > fleet.Truth[sn].FailDay {
				t.Errorf("drive %s alarmed after failure day", sn)
			}
		}
	}
	if checked == 0 {
		t.Skip("no ramped faulty vendor-I drives")
	}
	if rate := float64(alarms) / float64(checked); rate < 0.7 {
		t.Fatalf("scorer alarmed on only %.0f%% of failing drives", rate*100)
	}
}

func TestAgentQuietOnHealthyDrives(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	healthy := vendorDrives(fleet, "healthy")
	if len(healthy) == 0 {
		t.Skip("no healthy drives")
	}
	if len(healthy) > 120 {
		healthy = healthy[:120]
	}
	alarms := 0
	for _, sn := range healthy {
		if _, alarmedAt := streamDrive(t, s, fleet, sn); alarmedAt >= 0 {
			alarms++
		}
	}
	if rate := float64(alarms) / float64(len(healthy)); rate > 0.08 {
		t.Fatalf("scorer alarmed on %.0f%% of healthy drives", rate*100)
	}
}

// TestAgentCumulationMatchesPipeline: one record per call, a drive's
// rows score bit-identically to the offline pipeline's rows for it.
func TestAgentCumulationMatchesPipeline(t *testing.T) {
	fleet, model, regs := setup(t)
	offline := offlineScores(t, fleet, model, regs)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	all, _ := streamDrive(t, s, fleet, faulty)
	compared := 0
	for _, as := range all {
		if as.Dropped {
			continue
		}
		want, ok := offline[key{as.SerialNumber, as.Day}]
		if !ok {
			if !s.Dropped(faulty) {
				t.Fatalf("day %d scored online but absent offline", as.Day)
			}
			continue
		}
		if math.Float64bits(as.Probability) != math.Float64bits(want) {
			t.Fatalf("day %d: scorer %g, pipeline %g", as.Day, as.Probability, want)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no rows compared")
	}
}

// TestAgentRejectsOutOfOrder: a record that does not follow its
// drive's last day quarantines the drive (reason rolling-error).
func TestAgentRejectsOutOfOrder(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	series, _ := fleet.Data.Series(faulty)
	observeOne(t, s, series.Records[1])
	as := observeOne(t, s, series.Records[0])
	if len(as) != 1 || !as[0].Quarantined {
		t.Fatalf("out-of-order record accepted: %+v", as)
	}
	if e, ok := s.Quarantined(faulty); !ok || e.Reason != QuarantineRollingError {
		t.Fatalf("ledger entry %+v, %v", e, ok)
	}
}

func TestAgentHysteresis(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{AlarmAfter: 3, Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	all, _ := streamDrive(t, s, fleet, faulty)
	for i, as := range all {
		// The alarm may only latch on a row that completes a run of
		// at least 3 consecutive flags.
		latched := as.Alarmed && (i == 0 || !all[i-1].Alarmed)
		if latched && as.ConsecutiveFlags < 3 {
			t.Fatalf("alarm latched at %d consecutive flags", as.ConsecutiveFlags)
		}
	}
}

func TestAgentModelUpdate(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	// Retrain with a different seed and push.
	cfg := core.DefaultConfig("I")
	cfg.Registries = regs
	cfg.Seed = 9
	next, _, err := core.TrainOnFrame(cachedFrame, fleet.Tickets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateModel(next); err != nil {
		t.Fatal(err)
	}
	if s.Threshold() != next.Threshold {
		t.Fatal("threshold did not follow the pushed model")
	}
	// Group mismatch must be rejected.
	bad := core.DefaultConfig("I")
	bad.Group = features.GroupS
	wrong, _, err := core.TrainOnFrame(cachedFrame, fleet.Tickets, bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateModel(wrong); err == nil {
		t.Fatal("group change accepted")
	}
}

// TestUpdateModelRejectsWidthMismatch: a pushed model must pass the
// same width check New applies; a rejected push keeps the current
// model serving.
func TestUpdateModelRejectsWidthMismatch(t *testing.T) {
	fleet, model, regs := setup(t)
	batches := dayBatches(fleet, "I")
	ext, err := features.NewExtractor(model.Config.Group, regs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	want := runDays(t, clean, batches[:2])
	got := runDays(t, s, batches[:1])

	wide := *model
	wide.Width = ext.Width() + 1
	wide.Threshold = model.Threshold / 2
	if _, err := New(&wide, Options{Registries: regs}); err == nil {
		t.Fatal("New accepted a model wider than its group")
	}
	if err := s.UpdateModel(&wide); err == nil {
		t.Fatal("UpdateModel accepted a model wider than its group")
	}
	if s.Threshold() != model.Threshold {
		t.Fatalf("threshold %g after a rejected push, want %g", s.Threshold(), model.Threshold)
	}
	got = append(got, runDays(t, s, batches[1:2])...)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("scores changed after a rejected push")
	}
}

func TestAgentResetDrive(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	streamDrive(t, s, fleet, faulty)
	if d := s.Drives(); len(d) != 1 {
		t.Fatalf("drives = %v", d)
	}
	if !s.ResetDrive(faulty) {
		t.Fatal("ResetDrive failed")
	}
	if s.ResetDrive(faulty) {
		t.Fatal("second ResetDrive succeeded")
	}
	if s.Alarmed(faulty) {
		t.Fatal("alarm survived reset")
	}
}

func TestAgentRejectsSequenceModels(t *testing.T) {
	_, model, regs := setup(t)
	seq := *model
	seq.Config.Algorithm = core.AlgoCNNLSTM
	if _, err := New(&seq, Options{Registries: regs}); err == nil {
		t.Fatal("sequence model accepted")
	}
	s, err := New(model, Options{Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateModel(&seq); err == nil {
		t.Fatal("sequence model push accepted")
	}
}

// TestAgentExplainsFlags: with Explain, flagged rows carry at most
// three positive factors, strongest first, and unflagged rows none;
// the explained output is identical at any worker or shard count.
func TestAgentExplainsFlags(t *testing.T) {
	fleet, model, regs := setup(t)
	s, err := New(model, Options{Explain: true, Registries: regs})
	if err != nil {
		t.Fatal(err)
	}
	faulty, _ := pickDrives(t, fleet)
	all, _ := streamDrive(t, s, fleet, faulty)
	sawFactors := false
	for _, as := range all {
		if !as.Flagged {
			if as.TopFactors != nil {
				t.Fatal("unflagged assessment carries factors")
			}
			continue
		}
		if len(as.TopFactors) == 0 {
			t.Fatal("flagged assessment lacks factors despite Explain")
		}
		if len(as.TopFactors) > 3 {
			t.Fatalf("%d factors, want ≤ 3", len(as.TopFactors))
		}
		for i := 1; i < len(as.TopFactors); i++ {
			if as.TopFactors[i].Contribution > as.TopFactors[i-1].Contribution {
				t.Fatal("factors not sorted by contribution")
			}
		}
		for _, f := range as.TopFactors {
			if f.Feature == "" || f.Contribution <= 0 {
				t.Fatalf("bad factor %+v", f)
			}
		}
		sawFactors = true
	}
	if !sawFactors {
		t.Fatal("drive never flagged")
	}

	batches := dayBatches(fleet, "I")
	var first []Assessment
	for _, tc := range []struct{ workers, shards int }{{1, 1}, {0, 32}, {3, 5}} {
		s, err := New(model, Options{Explain: true, Workers: tc.workers, Shards: tc.shards, Registries: regs})
		if err != nil {
			t.Fatal(err)
		}
		got := runDays(t, s, batches)
		if first == nil {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("workers=%d shards=%d: explained output differs from the serial run", tc.workers, tc.shards)
		}
	}
}
