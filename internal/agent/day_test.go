package agent

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// vendorDayBatches groups the test fleet's vendor-I raw records into
// day-major batches, the ObserveDay feed shape.
func vendorDayBatches(t *testing.T) [][]dataset.Record {
	t.Helper()
	fleet, _ := setup(t)
	byDay := make(map[int][]dataset.Record)
	var days []int
	fleet.Data.Each(func(s *dataset.DriveSeries) {
		if s.Vendor != "I" {
			return
		}
		for i := range s.Records {
			d := s.Records[i].Day
			if len(byDay[d]) == 0 {
				days = append(days, d)
			}
			byDay[d] = append(byDay[d], s.Records[i])
		}
	})
	sort.Ints(days)
	out := make([][]dataset.Record, 0, len(days))
	for _, d := range days {
		out = append(out, byDay[d])
	}
	return out
}

func sameAssessment(a, b Assessment) bool {
	return a.SerialNumber == b.SerialNumber && a.Day == b.Day &&
		a.Flagged == b.Flagged && a.Alarmed == b.Alarmed &&
		a.Interpolated == b.Interpolated && a.Dropped == b.Dropped &&
		a.ConsecutiveFlags == b.ConsecutiveFlags &&
		math.Float64bits(a.Probability) == math.Float64bits(b.Probability)
}

// TestObserveDayMatchesObserve pins the batched path to the per-record
// path bit-for-bit, under both the legacy pure-cumulate mode and the
// pipeline gap policy. Observe returns only the record's own day, so
// the batched output is compared after dropping interpolated rows.
func TestObserveDayMatchesObserve(t *testing.T) {
	_, model := setup(t)
	batches := vendorDayBatches(t)
	for _, policy := range []dataset.GapPolicy{{}, dataset.DefaultGapPolicy()} {
		serial, err := New(model, Options{GapPolicy: policy})
		if err != nil {
			t.Fatal(err)
		}
		batched, err := New(model, Options{GapPolicy: policy, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range batches {
			var want []Assessment
			for _, rec := range batch {
				as, err := serial.Observe(rec)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, as)
			}
			all, err := batched.ObserveDay(batch)
			if err != nil {
				t.Fatal(err)
			}
			var got []Assessment
			for _, as := range all {
				if !as.Interpolated {
					got = append(got, as)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("policy %+v day %d: %d batched record assessments, %d serial", policy, batch[0].Day, len(got), len(want))
			}
			for i := range got {
				if !sameAssessment(got[i], want[i]) {
					t.Fatalf("policy %+v: record %s day %d: batched %+v vs serial %+v", policy, want[i].SerialNumber, want[i].Day, got[i], want[i])
				}
			}
		}
	}
}

// TestStateRoundTripWithGapPolicy saves an agent mid-stream under the
// fill/drop policy and checks the restored agent continues
// bit-identically — including across a gap that straddles the save
// point, which needs the previous raw record from the v2 snapshot.
func TestStateRoundTripWithGapPolicy(t *testing.T) {
	_, model := setup(t)
	batches := vendorDayBatches(t)
	cut := len(batches) / 2

	mk := func() *Agent {
		a, err := New(model, Options{GapPolicy: dataset.DefaultGapPolicy()})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	run := func(a *Agent, bs [][]dataset.Record) []Assessment {
		var out []Assessment
		for _, b := range bs {
			as, err := a.ObserveDay(b)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, as...)
		}
		return out
	}

	straight := mk()
	run(straight, batches[:cut])
	want := run(straight, batches[cut:])

	saved := mk()
	run(saved, batches[:cut])
	var buf bytes.Buffer
	if err := saved.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored := mk()
	if err := restored.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	got := run(restored, batches[cut:])

	if len(got) != len(want) {
		t.Fatalf("restored run: %d assessments, uninterrupted %d", len(got), len(want))
	}
	interpolated := false
	for i := range got {
		if !sameAssessment(got[i], want[i]) {
			t.Fatalf("assessment %d: restored %+v vs uninterrupted %+v", i, got[i], want[i])
		}
		interpolated = interpolated || got[i].Interpolated
	}
	if !interpolated {
		t.Fatal("fixture tail produced no mean-filled rows; restart-under-fill untested")
	}
}

// TestObserveDayRejectsBatchAtomically pins all-or-nothing batch
// handling: a batch with one corrupt record partway through is
// rejected without advancing any drive, so resubmitting the valid
// records scores exactly as if the bad batch had never arrived.
func TestObserveDayRejectsBatchAtomically(t *testing.T) {
	_, model := setup(t)
	batches := vendorDayBatches(t)
	if len(batches) < 2 || len(batches[0]) < 3 {
		t.Skip("fleet too small for a mixed batch")
	}
	ref, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[:2] {
		want, err := ref.ObserveDay(batch)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]dataset.Record(nil), batch...)
		mid := len(bad) / 2
		bad[mid] = bad[mid].Clone()
		bad[mid].Smart[0] = math.NaN()
		if _, err := a.ObserveDay(bad); err == nil {
			t.Fatal("batch with a NaN record accepted")
		}
		got, err := a.ObserveDay(batch)
		if err != nil {
			t.Fatalf("resubmitting the valid batch: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("day %d: %d assessments after a rejected batch, want %d", batch[0].Day, len(got), len(want))
		}
		for i := range got {
			if !sameAssessment(got[i], want[i]) {
				t.Fatalf("day %d: %+v after a rejected batch, want %+v", batch[0].Day, got[i], want[i])
			}
		}
	}
}
