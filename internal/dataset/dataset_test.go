package dataset

import (
	"bytes"
	"encoding/csv"
	"testing"

	"repro/internal/bsod"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// rec builds a minimal valid record for drive sn on day.
func rec(sn string, day int) Record {
	r := Record{
		SerialNumber: sn,
		Vendor:       "I",
		Model:        "M",
		Day:          day,
		Firmware:     "FW1",
		WCounts:      winevent.NewCounts(),
		BCounts:      bsod.NewCounts(),
	}
	r.Smart.Set(smartattr.PowerOnHours, float64(day*8))
	return r
}

func mustAppend(t *testing.T, d *recordSet, r Record) {
	t.Helper()
	if err := d.Append(r); err != nil {
		t.Fatal(err)
	}
}

// mustFrame streams records, grouped by drive in day order, through a
// FrameBuilder.
func mustFrame(t *testing.T, recs ...Record) *Frame {
	t.Helper()
	b := NewFrameBuilder()
	for _, r := range recs {
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish()
}

// readRows renders recs as CSV rows in the given order and reads them
// back with ReadCSVFrame.
func readRows(t *testing.T, recs ...Record) (*Frame, error) {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(Header()); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := cw.Write(csvRow(&recs[i])); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	return ReadCSVFrame(&buf)
}

func TestAppendKeepsDayOrder(t *testing.T) {
	var recs []Record
	for _, day := range []int{5, 1, 3, 2, 4} {
		recs = append(recs, rec("A", day))
	}
	f, err := readRows(t, recs...)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := f.Series("A")
	if !ok {
		t.Fatal("series missing")
	}
	for i, want := range []int{1, 2, 3, 4, 5} {
		if s.Records[i].Day != want {
			t.Fatalf("day %d = %d, want %d", i, s.Records[i].Day, want)
		}
	}
}

func TestAppendReplacesSameDay(t *testing.T) {
	r2 := rec("A", 3)
	r2.Smart.Set(smartattr.MediaErrors, 9)
	f := mustFrame(t, rec("A", 3), r2)
	s, _ := f.Series("A")
	if len(s.Records) != 1 {
		t.Fatalf("len = %d, want 1 after same-day replace", len(s.Records))
	}
	if got := s.Records[0].Smart.Get(smartattr.MediaErrors); got != 9 {
		t.Fatalf("replacement not applied: %g", got)
	}
}

func TestAppendRejectsIdentityChange(t *testing.T) {
	b := NewFrameBuilder()
	if err := b.Append(rec("A", 1)); err != nil {
		t.Fatal(err)
	}
	bad := rec("A", 2)
	bad.Vendor = "II"
	if err := b.Append(bad); err == nil {
		t.Fatal("vendor change should be rejected")
	}
}

func TestAppendValidates(t *testing.T) {
	b := NewFrameBuilder()
	if err := b.Append(rec("", 1)); err == nil {
		t.Fatal("empty SN should be rejected")
	}
	if err := b.Append(rec("A", -1)); err == nil {
		t.Fatal("negative day should be rejected")
	}
	bad := rec("A", 1)
	bad.WCounts = bad.WCounts[:2]
	if err := b.Append(bad); err == nil {
		t.Fatal("short W vector should be rejected")
	}
	if b.Len() != 0 {
		t.Fatalf("rejected records left %d rows", b.Len())
	}
}

func TestSeriesQueries(t *testing.T) {
	f := mustFrame(t, rec("A", 2), rec("A", 5), rec("A", 9), rec("B", 0), rec("B", 1))
	s, ok := f.Series("A")
	if !ok || s.SerialNumber != "A" || s.Vendor != "I" || s.Model != "M" || len(s.Records) != 3 {
		t.Fatalf("Series(A) = %+v, %v", s, ok)
	}
	for i, day := range []int{2, 5, 9} {
		r := &s.Records[i]
		if r.Day != day || r.SerialNumber != "A" || r.Firmware != "FW1" ||
			r.Smart.Get(smartattr.PowerOnHours) != float64(day*8) {
			t.Fatalf("record %d = %+v", i, *r)
		}
	}
	if _, ok := f.Series("C"); ok {
		t.Fatal("Series(C) should miss")
	}
	if g := f.MaxGap(0); g != 4 {
		t.Fatalf("MaxGap(A) = %d, want 4", g)
	}
	if g := f.MaxGap(1); g != 1 {
		t.Fatalf("MaxGap(B) = %d, want 1", g)
	}
}

func TestDatasetAccounting(t *testing.T) {
	f := mustFrame(t, rec("A", 1), rec("A", 2), rec("B", 1))
	if f.Drives() != 2 || f.Len() != 3 {
		t.Fatalf("Drives/Len = %d/%d", f.Drives(), f.Len())
	}
	if i, ok := f.DriveIndex("B"); !ok || i != 1 || f.Drive(i).SerialNumber != "B" {
		t.Fatalf("DriveIndex(B) = %d, %v", i, ok)
	}
	if _, ok := f.DriveIndex("C"); ok {
		t.Fatal("DriveIndex(C) should miss")
	}
	if d := f.Drive(0); d.SerialNumber != "A" || d.Rows() != 2 {
		t.Fatalf("drive 0 = %+v", *d)
	}
}

func TestFilterShares(t *testing.T) {
	b := rec("B", 1)
	b.Vendor = "II"
	f := mustFrame(t, rec("A", 1), rec("A", 2), b, rec("C", 4))
	only := f.FilterVendor("I")
	if only.Drives() != 2 || only.Len() != 3 {
		t.Fatalf("filtered drives/rows = %d/%d, want 2/3", only.Drives(), only.Len())
	}
	if _, ok := only.Series("B"); ok {
		t.Fatal("vendor II drive leaked through filter")
	}
	if only.Drive(0).SerialNumber != "A" || only.Drive(1).SerialNumber != "C" {
		t.Fatal("filter changed drive order")
	}
	// The view shares the parent's columns.
	c := only.Drive(1)
	if &only.SmartRow(int(c.Start))[0] != &f.SmartRow(int(c.Start))[0] || &only.WRow(int(c.Start))[0] != &f.WRow(int(c.Start))[0] {
		t.Fatal("FilterVendor copied columns")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := mustFrame(t, rec("A", 1))
	s, _ := f.Series("A")
	c := s.Records[0].Clone()
	c.WCounts[0] = 99
	c.BCounts[0] = 99
	if f.WRow(0)[0] == 99 || f.BRow(0)[0] == 99 {
		t.Fatal("Clone shares count vectors with the frame")
	}
}

func TestVendors(t *testing.T) {
	b := rec("B", 1)
	b.Vendor = "II"
	f := mustFrame(t, b, rec("A", 1), rec("C", 1))
	got := f.Vendors()
	if len(got) != 2 || got[0] != "II" || got[1] != "I" {
		t.Fatalf("Vendors = %v, want first-seen order [II I]", got)
	}
}

func TestEachOrder(t *testing.T) {
	f := mustFrame(t, rec("B", 1), rec("B", 2), rec("A", 1))
	var order []string
	f.Each(func(s *DriveSeries) {
		order = append(order, s.SerialNumber)
		d := f.Drive(len(order) - 1)
		for k := range s.Records {
			r := &s.Records[k]
			row := int(d.Start) + k
			// W/B alias the frame row, capped at its width.
			if &r.WCounts[0] != &f.WRow(row)[0] || &r.BCounts[0] != &f.BRow(row)[0] {
				t.Fatalf("%s record %d: counts do not alias the frame", s.SerialNumber, k)
			}
			if cap(r.WCounts) != winevent.Count() || cap(r.BCounts) != bsod.Count() {
				t.Fatalf("%s record %d: count slices not capped (%d, %d)", s.SerialNumber, k, cap(r.WCounts), cap(r.BCounts))
			}
			// SMART is copied.
			r.Smart[0] = 42
			if f.SmartRow(row)[0] == 42 {
				t.Fatal("SMART aliases the frame")
			}
		}
	})
	if len(order) != 2 || order[0] != "B" || order[1] != "A" {
		t.Fatalf("Each order = %v, want registration order", order)
	}
}

func TestUntil(t *testing.T) {
	f := mustFrame(t, rec("B", 7), rec("A", 1), rec("A", 5), rec("A", 9), rec("C", 2), rec("C", 5))
	cut := f.Until(5)
	if cut.Drives() != 2 || cut.Len() != 4 {
		t.Fatalf("drives/rows = %d/%d, want 2/4 (B starts after the cut)", cut.Drives(), cut.Len())
	}
	if cut.Drive(0).SerialNumber != "A" || cut.Drive(1).SerialNumber != "C" {
		t.Fatal("Until changed drive order")
	}
	s, _ := cut.Series("A")
	if len(s.Records) != 2 || s.Records[1].Day != 5 {
		t.Fatalf("A after cut: %d records", len(s.Records))
	}
	// The view shares columns; the original is untouched.
	a := cut.Drive(0)
	if &cut.SmartRow(int(a.Start))[0] != &f.SmartRow(int(a.Start))[0] {
		t.Fatal("Until copied columns")
	}
	if orig, _ := f.Series("A"); len(orig.Records) != 3 || f.Len() != 6 {
		t.Fatal("Until mutated the source")
	}
	if f.Until(-1).Drives() != 0 || f.Until(100).Len() != f.Len() {
		t.Fatal("Until bounds wrong")
	}
}

// TestFrameFromDatasetShim pins the compatibility form the benchmark
// harness still calls: it returns its argument.
func TestFrameFromDatasetShim(t *testing.T) {
	f := mustFrame(t, rec("A", 1))
	if got, err := FrameFromDataset(f); err != nil || got != f {
		t.Fatalf("FrameFromDataset = %p, %v; want %p", got, err, f)
	}
}
