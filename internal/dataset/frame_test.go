package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bsod"
	"repro/internal/firmware"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// randomRecords synthesises a fleet with irregular day coverage,
// negative zeros, fractional counts, and mid-life firmware changes —
// everything the bit-exactness comparisons need to be meaningful.
// (The dataset tests cannot import simfleet, which imports dataset.)
func randomRecords(seed int64, drives int) *recordSet {
	rng := rand.New(rand.NewSource(seed))
	vendors := []string{"I", "S", "T"}
	d := newRecordSet()
	for dr := 0; dr < drives; dr++ {
		vendor := vendors[rng.Intn(len(vendors))]
		sn := fmt.Sprintf("%s-%04d", vendor, dr)
		fw := firmware.Version(fmt.Sprintf("FW%d", rng.Intn(3)))
		day := rng.Intn(3)
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			r := Record{
				SerialNumber: sn,
				Vendor:       vendor,
				Model:        "M" + vendor,
				Day:          day,
				Firmware:     fw,
				WCounts:      winevent.NewCounts(),
				BCounts:      bsod.NewCounts(),
			}
			for j := range r.Smart {
				r.Smart[j] = randomValue(rng)
			}
			for j := range r.WCounts {
				r.WCounts[j] = randomValue(rng)
			}
			for j := range r.BCounts {
				r.BCounts[j] = randomValue(rng)
			}
			if err := d.Append(r); err != nil {
				panic(err)
			}
			if rng.Intn(10) == 0 {
				fw = firmware.Version(fmt.Sprintf("FW%d", rng.Intn(3)))
			}
			day += 1 + rng.Intn(12) // gaps from 1 (consecutive) to 12
		}
	}
	return d
}

// randomValue draws a value whose bit pattern can expose arithmetic
// reordering: small counts, fractions, and the occasional -0.
func randomValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return float64(rng.Intn(5))
	case 3:
		return rng.Float64() * 10
	default:
		return float64(rng.Intn(100)) / 3
	}
}

// requireRecordsEqualBits asserts two datasets agree exactly,
// including the bit patterns of every float (so +0 vs -0 and any
// arithmetic reordering fail loudly).
func requireRecordsEqualBits(t *testing.T, want, got *recordSet) {
	t.Helper()
	if want.Cumulated() != got.Cumulated() {
		t.Fatalf("cumulated marker: want %v, got %v", want.Cumulated(), got.Cumulated())
	}
	wantSNs, gotSNs := want.SerialNumbers(), got.SerialNumbers()
	if len(wantSNs) != len(gotSNs) {
		t.Fatalf("drive count: want %d, got %d", len(wantSNs), len(gotSNs))
	}
	for i := range wantSNs {
		if wantSNs[i] != gotSNs[i] {
			t.Fatalf("drive order at %d: want %s, got %s", i, wantSNs[i], gotSNs[i])
		}
	}
	for _, sn := range wantSNs {
		ws, _ := want.Series(sn)
		gs, ok := got.Series(sn)
		if !ok {
			t.Fatalf("drive %s missing", sn)
		}
		if ws.Vendor != gs.Vendor || ws.Model != gs.Model {
			t.Fatalf("drive %s identity: want %s/%s, got %s/%s", sn, ws.Vendor, ws.Model, gs.Vendor, gs.Model)
		}
		if len(ws.Records) != len(gs.Records) {
			t.Fatalf("drive %s: want %d records, got %d", sn, len(ws.Records), len(gs.Records))
		}
		for i := range ws.Records {
			a, b := &ws.Records[i], &gs.Records[i]
			if a.Day != b.Day || a.Firmware != b.Firmware || a.Interpolated != b.Interpolated {
				t.Fatalf("drive %s record %d: want day=%d fw=%s interp=%v, got day=%d fw=%s interp=%v",
					sn, i, a.Day, a.Firmware, a.Interpolated, b.Day, b.Firmware, b.Interpolated)
			}
			for j := range a.Smart {
				if math.Float64bits(a.Smart[j]) != math.Float64bits(b.Smart[j]) {
					t.Fatalf("drive %s record %d SMART[%d]: want %x, got %x",
						sn, i, j, math.Float64bits(a.Smart[j]), math.Float64bits(b.Smart[j]))
				}
			}
			for j := range a.WCounts {
				if math.Float64bits(a.WCounts[j]) != math.Float64bits(b.WCounts[j]) {
					t.Fatalf("drive %s record %d W[%d]: want %x, got %x",
						sn, i, j, math.Float64bits(a.WCounts[j]), math.Float64bits(b.WCounts[j]))
				}
			}
			for j := range a.BCounts {
				if math.Float64bits(a.BCounts[j]) != math.Float64bits(b.BCounts[j]) {
					t.Fatalf("drive %s record %d B[%d]: want %x, got %x",
						sn, i, j, math.Float64bits(a.BCounts[j]), math.Float64bits(b.BCounts[j]))
				}
			}
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	d := randomRecords(1, 30)
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != d.Len() || f.Drives() != d.Drives() {
		t.Fatalf("frame shape %d rows/%d drives, records %d/%d", f.Len(), f.Drives(), d.Len(), d.Drives())
	}
	requireRecordsEqualBits(t, d, recordsOf(f))
}

func TestFrameRoundTripCumulated(t *testing.T) {
	d := randomRecords(2, 10)
	raw, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := PreparePipeline(raw, PipelineOptions{SkipClean: true})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Cumulated() {
		t.Fatal("cumulated marker not set")
	}
	cumulateRecords(d)
	requireRecordsEqualBits(t, d, recordsOf(f))
}

func TestFrameBuilderStream(t *testing.T) {
	d := randomRecords(3, 20)
	b := NewFrameBuilder()
	d.Each(func(s *DriveSeries) {
		for i := range s.Records {
			if err := b.Append(s.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	requireRecordsEqualBits(t, d, recordsOf(b.Finish()))
}

func TestFrameBuilderSameDayReplaces(t *testing.T) {
	b := NewFrameBuilder()
	r1 := rec("A", 3)
	r1.WCounts[0] = 1
	r2 := rec("A", 3)
	r2.WCounts[0] = 9
	if err := b.Append(r1); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(r2); err != nil {
		t.Fatal(err)
	}
	f := b.Finish()
	if f.Len() != 1 {
		t.Fatalf("want 1 row after same-day replace, got %d", f.Len())
	}
	if got := f.WRow(0)[0]; got != 9 {
		t.Fatalf("replacement not applied: W[0] = %g", got)
	}
}

func TestFrameBuilderRejectsOutOfOrder(t *testing.T) {
	b := NewFrameBuilder()
	if err := b.Append(rec("A", 5)); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(rec("A", 4)); !errors.Is(err, ErrRowOrder) {
		t.Fatalf("day regression: got %v, want ErrRowOrder", err)
	}
}

func TestFrameBuilderRejectsReappearingDrive(t *testing.T) {
	b := NewFrameBuilder()
	for _, step := range []struct {
		sn  string
		day int
	}{{"A", 0}, {"B", 0}} {
		if err := b.Append(rec(step.sn, step.day)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Append(rec("A", 1)); !errors.Is(err, ErrRowOrder) {
		t.Fatalf("drive reappearance: got %v, want ErrRowOrder", err)
	}
}

func TestFrameBuilderRejectsIdentityChange(t *testing.T) {
	b := NewFrameBuilder()
	if err := b.Append(rec("A", 0)); err != nil {
		t.Fatal(err)
	}
	r := rec("A", 1)
	r.Model = "other"
	if err := b.Append(r); err == nil {
		t.Fatal("identity change accepted")
	}
}

func TestAddDriveValidatesDays(t *testing.T) {
	f := NewFrameArena(3)
	f.SetDay(0, 2)
	f.SetDay(1, 2) // duplicate day
	f.SetDay(2, 1) // regression
	if err := f.AddDrive("A", "I", "M", 0, 2); err == nil {
		t.Fatal("duplicate day accepted")
	}
	f2 := NewFrameArena(2)
	f2.SetDay(0, 5)
	f2.SetDay(1, 3)
	if err := f2.AddDrive("A", "I", "M", 0, 2); err == nil {
		t.Fatal("decreasing days accepted")
	}
	f3 := NewFrameArena(2)
	f3.SetDay(0, -1)
	if err := f3.AddDrive("A", "I", "M", 0, 1); err == nil {
		t.Fatal("negative day accepted")
	}
	f4 := NewFrameArena(2)
	f4.SetDay(0, 0)
	f4.SetDay(1, 1)
	if err := f4.AddDrive("A", "I", "M", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := f4.AddDrive("A", "I", "M", 0, 2); err == nil {
		t.Fatal("duplicate serial accepted")
	}
	if err := f4.AddDrive("B", "I", "M", 1, 1); err == nil {
		t.Fatal("empty range accepted")
	}
}

func TestFilterVendorView(t *testing.T) {
	d := randomRecords(4, 30)
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	want := d.filter(func(s *DriveSeries) bool { return s.Vendor == "I" })
	got := f.FilterVendor("I")
	requireRecordsEqualBits(t, want, recordsOf(got))
	if f.FilterVendor("") != f {
		t.Fatal("empty vendor should return the frame itself")
	}
}

func TestWriteCSVFrameMatchesWriteCSV(t *testing.T) {
	d := randomRecords(5, 15)
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	var recBuf, frameBuf bytes.Buffer
	if err := writeCSVRecords(&recBuf, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVFrame(&frameBuf, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recBuf.Bytes(), frameBuf.Bytes()) {
		t.Fatal("WriteCSVFrame output differs from WriteCSV")
	}
}

func TestReadCSVFrameRoundTrip(t *testing.T) {
	d := randomRecords(6, 15)
	var buf bytes.Buffer
	if err := writeCSVRecords(&buf, d); err != nil {
		t.Fatal(err)
	}
	f, err := ReadCSVFrame(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireRecordsEqualBits(t, d, recordsOf(f))
}

func TestReadCSVFrameFallbackOnInterleavedRows(t *testing.T) {
	// Rows the streaming builder cannot take — interleaved drives, days
	// out of order, repeated days — must still give the frame the
	// ordering rules define: drives in first-seen order, ascending days,
	// and a later row winning on a repeated day. A drive whose vendor or
	// model changes is an error. Each row carries a MediaErrors mark so
	// the winner of a repeated day is visible.
	row := func(sn string, day int, mark float64) Record {
		r := rec(sn, day)
		r.Smart.Set(smartattr.MediaErrors, mark)
		return r
	}
	type drive struct {
		sn    string
		days  []int
		marks []float64
	}
	cases := []struct {
		name    string
		rows    []Record
		want    []drive
		wantErr bool
	}{
		{
			name: "interleaved drives",
			rows: []Record{row("A", 0, 1), row("B", 0, 2), row("A", 1, 3), row("B", 1, 4),
				row("A", 2, 5), row("B", 2, 6), row("A", 3, 7), row("B", 3, 8)},
			want: []drive{{"A", []int{0, 1, 2, 3}, []float64{1, 3, 5, 7}}, {"B", []int{0, 1, 2, 3}, []float64{2, 4, 6, 8}}},
		},
		{
			name: "days out of order",
			rows: []Record{row("A", 2, 1), row("A", 0, 2), row("A", 3, 3), row("B", 1, 4),
				row("A", 1, 5), row("B", 0, 6)},
			want: []drive{{"A", []int{0, 1, 2, 3}, []float64{2, 5, 1, 3}}, {"B", []int{0, 1}, []float64{6, 4}}},
		},
		{
			name: "repeated day",
			rows: []Record{row("A", 0, 1), row("A", 1, 2), row("B", 0, 3), row("A", 1, 4),
				row("A", 3, 5), row("A", 2, 6), row("A", 3, 7)},
			want: []drive{{"A", []int{0, 1, 2, 3}, []float64{1, 4, 6, 7}}, {"B", []int{0}, []float64{3}}},
		},
		{
			name:    "vendor change",
			rows:    []Record{row("A", 0, 1), row("B", 0, 2), func() Record { r := row("A", 1, 3); r.Vendor = "II"; return r }()},
			wantErr: true,
		},
		{
			name:    "model change",
			rows:    []Record{row("A", 1, 1), row("A", 0, 2), func() Record { r := row("A", 2, 3); r.Model = "other"; return r }()},
			wantErr: true,
		},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		cw := csv.NewWriter(&buf)
		if err := cw.Write(Header()); err != nil {
			t.Fatal(err)
		}
		for i := range c.rows {
			if err := cw.Write(csvRow(&c.rows[i])); err != nil {
				t.Fatal(err)
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			t.Fatal(err)
		}
		f, err := ReadCSVFrame(bytes.NewReader(buf.Bytes()))
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: identity change accepted", c.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if f.Drives() != len(c.want) {
			t.Fatalf("%s: %d drives, want %d", c.name, f.Drives(), len(c.want))
		}
		for i, w := range c.want {
			d := f.Drive(i)
			if d.SerialNumber != w.sn || d.Rows() != len(w.days) {
				t.Fatalf("%s: drive %d is %s with %d rows, want %s with %d", c.name, i, d.SerialNumber, d.Rows(), w.sn, len(w.days))
			}
			for k := range w.days {
				r := int(d.Start) + k
				mark := (*smartattr.Values)(f.SmartRow(r)).Get(smartattr.MediaErrors)
				if int(f.Day(r)) != w.days[k] || mark != w.marks[k] {
					t.Fatalf("%s: drive %s row %d is day %d mark %g, want day %d mark %g",
						c.name, w.sn, k, f.Day(r), mark, w.days[k], w.marks[k])
				}
			}
		}
	}
}

// csvRow renders r in the CSV column layout of Header.
func csvRow(r *Record) []string {
	row := []string{r.SerialNumber, r.Vendor, r.Model, strconv.Itoa(r.Day),
		strconv.FormatBool(r.Interpolated), string(r.Firmware)}
	for _, v := range r.Smart {
		row = append(row, formatFloat(v))
	}
	for _, v := range r.WCounts {
		row = append(row, formatFloat(v))
	}
	for _, v := range r.BCounts {
		row = append(row, formatFloat(v))
	}
	return row
}

func TestCumulateTwiceErrors(t *testing.T) {
	f, err := frameOf(buildSet(t, map[string][]int{"A": {0, 1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	cum, _, err := PreparePipeline(f, PipelineOptions{SkipClean: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cum.Cumulated() {
		t.Fatal("cumulated marker not set")
	}
	if _, _, err := PreparePipeline(cum, PipelineOptions{SkipClean: true}); err == nil {
		t.Fatal("second cumulation accepted")
	}
}

func TestCumulatedMarkerPropagates(t *testing.T) {
	raw, err := frameOf(buildSet(t, map[string][]int{"A": {0, 1, 2}, "B": {0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := PreparePipeline(raw, PipelineOptions{SkipClean: true})
	if err != nil {
		t.Fatal(err)
	}
	if !f.FilterVendor("I").Cumulated() {
		t.Fatal("FilterVendor dropped the cumulated marker")
	}
	if !f.Until(1).Cumulated() {
		t.Fatal("Until dropped the cumulated marker")
	}
	if !recordsOf(f).Cumulated() {
		t.Fatal("the record view dropped the cumulated marker")
	}
	cleaned, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy(), SkipCumulate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !cleaned.Cumulated() {
		t.Fatal("cleaning dropped the cumulated marker")
	}
}

func TestPreparePipelineRejectsCumulatedFrame(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 1, 2}})
	cumulateRecords(d)
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy()}); err == nil {
		t.Fatal("cumulating a cumulated frame accepted")
	}
	// With cumulation skipped the frame is only cleaned — no hazard.
	if _, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy(), SkipCumulate: true}); err != nil {
		t.Fatal(err)
	}
}

func TestGapHistogramGuardsNonPositiveGaps(t *testing.T) {
	// Hand-assemble a corrupt drive (AddDrive would reject it) to pin
	// the guard: duplicate and backwards days land in bucket 0.
	f := NewFrameArena(4)
	for row, day := range []int32{5, 5, 3, 9} {
		f.SetDay(row, day)
	}
	f.drives = append(f.drives, FrameDrive{SerialNumber: "X", Vendor: "I", Model: "M", Start: 0, End: 4})
	hist := GapHistogram(f, 10)
	if hist[0] != 2 {
		t.Fatalf("non-positive gaps in bucket 0 = %d, want 2", hist[0])
	}
	if hist[6] != 1 {
		t.Fatalf("gap 6 count = %d, want 1", hist[6])
	}
}

// preparedRecordPath runs the record-form oracle of the clean and
// cumulate stages that PreparePipeline fuses.
func preparedRecordPath(t *testing.T, d *recordSet, policy GapPolicy, skipClean, skipCumulate bool) (*recordSet, CleanStats) {
	t.Helper()
	var stats CleanStats
	out := d
	if !skipClean {
		var err error
		out, stats, err = cleanRecords(d, policy)
		if err != nil {
			t.Fatal(err)
		}
	} else if !skipCumulate {
		out = d.Clone()
	}
	if !skipCumulate {
		cumulateRecords(out)
	}
	return out, stats
}

func TestPreparePipelineMatchesRecordPath(t *testing.T) {
	policies := []GapPolicy{DefaultGapPolicy(), {DropGap: 5, FillGap: 2}, {DropGap: 13, FillGap: 9}}
	for seed := int64(0); seed < 4; seed++ {
		d := randomRecords(seed, 25)
		f, err := frameOf(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range policies {
			for _, workers := range []int{1, 0, 3} {
				want, wantStats := preparedRecordPath(t, d, policy, false, false)
				got, gotStats, err := PreparePipeline(f, PipelineOptions{Policy: policy, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if wantStats != gotStats {
					t.Fatalf("seed %d policy %+v workers %d: stats %+v, want %+v",
						seed, policy, workers, gotStats, wantStats)
				}
				requireRecordsEqualBits(t, want, recordsOf(got))
			}
		}
	}
}

func TestPreparePipelineAblations(t *testing.T) {
	d := randomRecords(7, 20)
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ skipClean, skipCumulate bool }{
		{true, false}, {false, true}, {true, true},
	}
	for _, c := range cases {
		want, wantStats := preparedRecordPath(t, d, DefaultGapPolicy(), c.skipClean, c.skipCumulate)
		got, gotStats, err := PreparePipeline(f, PipelineOptions{
			Policy: DefaultGapPolicy(), SkipClean: c.skipClean, SkipCumulate: c.skipCumulate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if wantStats != gotStats {
			t.Fatalf("case %+v: stats %+v, want %+v", c, gotStats, wantStats)
		}
		requireRecordsEqualBits(t, want, recordsOf(got))
	}
}

func TestPreparePipelineWorkerDeterminism(t *testing.T) {
	d := randomRecords(8, 40)
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 7} {
		got, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		requireRecordsEqualBits(t, recordsOf(base), recordsOf(got))
	}
}

// FuzzPreparePipeline drives the fused pass with arbitrary fleet
// shapes and gap policies, always requiring bit-identity with the
// record path.
func FuzzPreparePipeline(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(2))
	f.Add(int64(2), uint8(2), uint8(1), uint8(0))
	f.Add(int64(99), uint8(13), uint8(9), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, dropGap, fillGap, workers uint8) {
		policy := GapPolicy{DropGap: int(dropGap), FillGap: int(fillGap)}
		if policy.Validate() != nil {
			t.Skip()
		}
		d := randomRecords(seed, 12)
		fr, err := frameOf(d)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats := preparedRecordPath(t, d, policy, false, false)
		got, gotStats, err := PreparePipeline(fr, PipelineOptions{Policy: policy, Workers: int(workers)})
		if err != nil {
			t.Fatal(err)
		}
		if wantStats != gotStats {
			t.Fatalf("stats %+v, want %+v", gotStats, wantStats)
		}
		requireRecordsEqualBits(t, want, recordsOf(got))
	})
}

// FuzzReadCSVFrame mirrors FuzzReadCSV for the streaming frame reader:
// it must never panic, and whatever parses must match ReadCSV.
func FuzzReadCSVFrame(f *testing.F) {
	d := newRecordSet()
	_ = d.Append(rec("A", 1))
	var sb strings.Builder
	_ = writeCSVRecords(&sb, d)
	f.Add(sb.String())
	f.Add("")
	f.Add(strings.Repeat("x,", 53) + "x\n")
	f.Fuzz(func(t *testing.T, input string) {
		fr, frameErr := ReadCSVFrame(strings.NewReader(input))
		ds, dsErr := readCSVRecords(strings.NewReader(input))
		if (frameErr == nil) != (dsErr == nil) {
			t.Fatalf("reader disagreement: frame err %v, dataset err %v", frameErr, dsErr)
		}
		if frameErr != nil {
			return
		}
		requireRecordsEqualBits(t, ds, recordsOf(fr))
	})
}
