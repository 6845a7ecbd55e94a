package dataset

import (
	"testing"

	"repro/internal/smartattr"
	"repro/internal/winevent"
)

func buildSet(t *testing.T, days map[string][]int) *recordSet {
	t.Helper()
	d := newRecordSet()
	for sn, list := range days {
		for _, day := range list {
			r := rec(sn, day)
			r.WCounts[0] = 1 // one W_7 per observed day, for cumulate checks
			mustAppend(t, d, r)
		}
	}
	return d
}

func TestGapPolicyValidate(t *testing.T) {
	if err := DefaultGapPolicy().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []GapPolicy{
		{DropGap: 1, FillGap: 0},
		{DropGap: 10, FillGap: 0},
		{DropGap: 5, FillGap: 6},
		{DropGap: 5, FillGap: 5},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %+v should be invalid", p)
		}
	}
}

// runPipeline runs PreparePipeline on d's frame and returns the result
// in record form.
func runPipeline(t *testing.T, d *recordSet, opts PipelineOptions) (*recordSet, CleanStats) {
	t.Helper()
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := PreparePipeline(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return recordsOf(out), stats
}

// cleanOnly is the clean stage alone under the paper's policy.
var cleanOnly = PipelineOptions{Policy: DefaultGapPolicy(), SkipCumulate: true}

func TestCleanDropsLongGaps(t *testing.T) {
	d := buildSet(t, map[string][]int{
		"keep": {0, 1, 2, 3},
		"drop": {0, 1, 15}, // gap of 14 ≥ 10
	})
	out, stats := runPipeline(t, d, cleanOnly)
	if _, ok := out.Series("drop"); ok {
		t.Fatal("drive with ≥10 day gap survived")
	}
	if _, ok := out.Series("keep"); !ok {
		t.Fatal("continuous drive was dropped")
	}
	if stats.DrivesDropped != 1 || stats.DrivesIn != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCleanFillsShortGaps(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 3}}) // gap of 3 → fill days 1, 2
	out, stats := runPipeline(t, d, cleanOnly)
	s, _ := out.Series("A")
	if len(s.Records) != 4 {
		t.Fatalf("filled series has %d records, want 4", len(s.Records))
	}
	if stats.RecordsFilled != 2 {
		t.Fatalf("RecordsFilled = %d, want 2", stats.RecordsFilled)
	}
	for _, day := range []int{1, 2} {
		r := &s.Records[day]
		if r.Day != day {
			t.Fatalf("day %d not filled", day)
		}
		if !r.Interpolated {
			t.Errorf("day %d not marked interpolated", day)
		}
		// Mean of the adjacent PowerOnHours values (0*8 and 3*8).
		if got := r.Smart.Get(smartattr.PowerOnHours); got != 12 {
			t.Errorf("day %d PowerOnHours = %g, want mean 12", day, got)
		}
		if got := r.Firmware; got != "FW1" {
			t.Errorf("day %d firmware = %q, want carried FW1", day, got)
		}
	}
}

func TestCleanLeavesMediumGaps(t *testing.T) {
	// A gap of 5 is between FillGap (3) and DropGap (10): the drive
	// survives but keeps its hole.
	d := buildSet(t, map[string][]int{"A": {0, 5}})
	out, stats := runPipeline(t, d, cleanOnly)
	s, _ := out.Series("A")
	if len(s.Records) != 2 {
		t.Fatalf("records = %d, want 2 (no fill)", len(s.Records))
	}
	if stats.RecordsFilled != 0 || stats.DrivesDropped != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCleanDoesNotMutateInput(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 3}})
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	before := f.Len()
	if _, _, err := PreparePipeline(f, PipelineOptions{Policy: DefaultGapPolicy()}); err != nil {
		t.Fatal(err)
	}
	if f.Len() != before || f.Cumulated() {
		t.Fatal("PreparePipeline mutated its input")
	}
}

func TestCleanRejectsBadPolicy(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 1}})
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PreparePipeline(f, PipelineOptions{Policy: GapPolicy{DropGap: 3, FillGap: 5}}); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

// cumulateOnly is the cumulate stage alone.
var cumulateOnly = PipelineOptions{SkipClean: true}

func TestCumulate(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 1, 2}})
	out, _ := runPipeline(t, d, cumulateOnly)
	s, _ := out.Series("A")
	want := []float64{1, 2, 3}
	for i, r := range s.Records {
		if got := r.WCounts.Get(winevent.BadBlock); got != want[i] {
			t.Errorf("record %d cumulative W_7 = %g, want %g", i, got, want[i])
		}
	}
}

func TestCumulateMonotone(t *testing.T) {
	d := buildSet(t, map[string][]int{"A": {0, 1, 2, 3, 4, 5}})
	// Vary daily counts.
	s, _ := d.Series("A")
	for i := range s.Records {
		s.Records[i].WCounts[1] = float64(i % 3)
		s.Records[i].BCounts[0] = float64((i + 1) % 2)
	}
	out, _ := runPipeline(t, d, cumulateOnly)
	s, _ = out.Series("A")
	for i := 1; i < len(s.Records); i++ {
		for j := range s.Records[i].WCounts {
			if s.Records[i].WCounts[j] < s.Records[i-1].WCounts[j] {
				t.Fatalf("W counts not monotone at record %d", i)
			}
		}
		for j := range s.Records[i].BCounts {
			if s.Records[i].BCounts[j] < s.Records[i-1].BCounts[j] {
				t.Fatalf("B counts not monotone at record %d", i)
			}
		}
	}
}

func TestGapHistogram(t *testing.T) {
	d := buildSet(t, map[string][]int{
		"A": {0, 1, 3}, // gaps 1, 2
		"B": {0, 20},   // gap 20 → clamped to maxGap
		"C": {0, 1, 2}, // gaps 1, 1
	})
	f, err := frameOf(d)
	if err != nil {
		t.Fatal(err)
	}
	hist := GapHistogram(f, 5)
	if hist[1] != 3 {
		t.Errorf("hist[1] = %d, want 3", hist[1])
	}
	if hist[2] != 1 {
		t.Errorf("hist[2] = %d, want 1", hist[2])
	}
	if hist[5] != 1 {
		t.Errorf("hist[5] (clamped) = %d, want 1", hist[5])
	}
}
