package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// testFrame converts the shared test fleet's telemetry to a frame.
func testFrame(t *testing.T) *dataset.Frame {
	t.Helper()
	f, err := dataset.FrameFromDataset(testFleet(t).Data)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// requirePreparedEquivalent asserts two preparations agree: same
// stats, labels, and (bit-exactly) the same cleaned/cumulated telemetry
// and sample set.
func requirePreparedEquivalent(t *testing.T, want, got *Prepared) {
	t.Helper()
	if want.CleanStats != got.CleanStats {
		t.Fatalf("clean stats %+v, want %+v", got.CleanStats, want.CleanStats)
	}
	if want.LabelStats != got.LabelStats {
		t.Fatalf("label stats %+v, want %+v", got.LabelStats, want.LabelStats)
	}
	if !reflect.DeepEqual(want.Labels, got.Labels) {
		t.Fatal("labels differ")
	}
	if want.RecordCount != got.RecordCount {
		t.Fatalf("record count %d, want %d", got.RecordCount, want.RecordCount)
	}
	wd, gd := want.Frame.ToDataset(), got.Frame.ToDataset()
	if !reflect.DeepEqual(wd.SerialNumbers(), gd.SerialNumbers()) {
		t.Fatal("drive order differs")
	}
	for _, sn := range wd.SerialNumbers() {
		ws, _ := wd.Series(sn)
		gs, _ := gd.Series(sn)
		if !reflect.DeepEqual(ws, gs) {
			t.Fatalf("drive %s telemetry differs", sn)
		}
	}
	wset, err := want.BuildSampleSet()
	if err != nil {
		t.Fatal(err)
	}
	gset, err := got.BuildSampleSet()
	if err != nil {
		t.Fatal(err)
	}
	if wset.Len() != gset.Len() || wset.Width() != gset.Width() {
		t.Fatalf("sample set %dx%d, want %dx%d", gset.Len(), gset.Width(), wset.Len(), wset.Width())
	}
	wx, gx := wset.Arena(), gset.Arena()
	for i := range wx {
		if math.Float64bits(wx[i]) != math.Float64bits(gx[i]) {
			t.Fatalf("sample arena differs at %d: %x vs %x", i, gx[i], wx[i])
		}
	}
	for i := 0; i < wset.Len(); i++ {
		if wset.Y(i) != gset.Y(i) || wset.Day(i) != gset.Day(i) || wset.SN(i) != gset.SN(i) {
			t.Fatalf("sample row %d metadata differs", i)
		}
	}
}

// TestPrepareFrameAblations checks each preprocessing switch takes
// effect and that no preparation depends on the worker count.
func TestPrepareFrameAblations(t *testing.T) {
	fleet := testFleet(t)
	raw := testFrame(t).FilterVendor("I")
	for _, mutate := range []func(*Config){
		func(c *Config) { c.SkipClean = true },
		func(c *Config) { c.SkipCumulate = true },
		func(c *Config) { c.SkipClean = true; c.SkipCumulate = true },
		func(c *Config) { c.Workers = 3 },
	} {
		cfg := DefaultConfig("I")
		mutate(&cfg)
		got, err := PrepareFrame(testFrame(t), fleet.Tickets, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.SkipClean && (got.CleanStats != dataset.CleanStats{} || got.RecordCount != raw.Len()) {
			t.Fatalf("%+v: clean stage ran (stats %+v, %d of %d rows)", cfg, got.CleanStats, got.RecordCount, raw.Len())
		}
		if !cfg.SkipClean && got.CleanStats.DrivesIn != raw.Drives() {
			t.Fatalf("%+v: clean stage saw %d drives, want %d", cfg, got.CleanStats.DrivesIn, raw.Drives())
		}
		if got.Frame.Cumulated() == cfg.SkipCumulate {
			t.Fatalf("%+v: frame cumulated = %v", cfg, got.Frame.Cumulated())
		}
		serial := cfg
		serial.Workers = 1
		want, err := PrepareFrame(testFrame(t), fleet.Tickets, serial)
		if err != nil {
			t.Fatal(err)
		}
		requirePreparedEquivalent(t, want, got)
	}
}

// TestPrepareUnknownVendor asks for a vendor the frame does not hold.
func TestPrepareUnknownVendor(t *testing.T) {
	fleet := testFleet(t)
	if _, err := PrepareFrame(testFrame(t).FilterVendor("II"), fleet.Tickets, DefaultConfig("I")); err == nil {
		t.Fatal("vendor absent from the frame accepted")
	}
}

func TestPrepareFrameUnknownVendor(t *testing.T) {
	fleet := testFleet(t)
	if _, err := PrepareFrame(testFrame(t), fleet.Tickets, DefaultConfig("XX")); err == nil {
		t.Fatal("unknown vendor accepted")
	}
}
