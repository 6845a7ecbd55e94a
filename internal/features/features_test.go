package features

import (
	"testing"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

func TestGroupNames(t *testing.T) {
	cases := map[string]Group{
		"SFWB": GroupSFWB, "SFW": GroupSFW, "SFB": GroupSFB,
		"SF": GroupSF, "S": GroupS, "W": GroupW, "B": GroupB,
	}
	for want, g := range cases {
		if got := g.String(); got != want {
			t.Errorf("group %v renders %q, want %q", g, got, want)
		}
	}
	if got := (Group{}).String(); got != "∅" {
		t.Errorf("empty group renders %q", got)
	}
	if !(Group{}).Empty() || GroupS.Empty() {
		t.Error("Empty() misbehaves")
	}
	if len(AllGroups()) != 7 {
		t.Error("AllGroups should list the seven Table V groups")
	}
}

func testRegistry() map[string]*firmware.Registry {
	return map[string]*firmware.Registry{
		"I": firmware.MustNewRegistry("I", []firmware.Release{
			{Version: "FW1", Seq: 1, HazardMultiplier: 2, ShipShare: 0.5},
			{Version: "FW2", Seq: 2, HazardMultiplier: 1, ShipShare: 0.5},
		}),
	}
}

func testRecord() *dataset.Record {
	r := &dataset.Record{
		SerialNumber: "A",
		Vendor:       "I",
		Model:        "M",
		Day:          3,
		Firmware:     "FW2",
		WCounts:      winevent.NewCounts(),
		BCounts:      bsod.NewCounts(),
	}
	r.Smart.Set(smartattr.PowerOnHours, 1234)
	r.Smart.Set(smartattr.MediaErrors, 5)
	r.WCounts.Add(winevent.PagingError, 7)
	r.BCounts.Add(bsod.PageFaultInNonpagedArea, 2)
	r.BCounts.Add(bsod.NTFSFileSystem, 1)
	return r
}

func TestExtractorWidths(t *testing.T) {
	widths := map[string]int{
		"SFWB": 16 + 1 + 5 + 23,
		"SFW":  16 + 1 + 5,
		"SFB":  16 + 1 + 23,
		"SF":   17,
		"S":    16,
		"W":    5,
		"B":    23,
	}
	for _, g := range AllGroups() {
		e, err := NewExtractor(g, testRegistry())
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Width(); got != widths[g.String()] {
			t.Errorf("group %s width = %d, want %d", g, got, widths[g.String()])
		}
		if len(e.Names()) != e.Width() {
			t.Errorf("group %s: %d names for width %d", g, len(e.Names()), e.Width())
		}
		if got := len(e.Extract(testRecord())); got != e.Width() {
			t.Errorf("group %s: extracted %d values", g, got)
		}
	}
}

func TestNewExtractorRejectsEmptyGroup(t *testing.T) {
	if _, err := NewExtractor(Group{}, nil); err == nil {
		t.Fatal("empty group accepted")
	}
}

func TestExtractValues(t *testing.T) {
	e, err := NewExtractor(GroupSFWB, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	x := e.Extract(testRecord())
	names := e.Names()
	at := func(name string) float64 {
		for i, n := range names {
			if n == name {
				return x[i]
			}
		}
		t.Fatalf("feature %s missing", name)
		return 0
	}
	if got := at("S_12"); got != 1234 {
		t.Errorf("S_12 = %g, want 1234", got)
	}
	if got := at("S_14"); got != 5 {
		t.Errorf("S_14 = %g, want 5", got)
	}
	if got := at("F"); got != 2 {
		t.Errorf("F = %g, want release seq 2", got)
	}
	if got := at("W_51"); got != 7 {
		t.Errorf("W_51 = %g, want 7", got)
	}
	if got := at("B_50"); got != 2 {
		t.Errorf("B_50 = %g, want 2", got)
	}
	if got := at("B_total"); got != 3 {
		t.Errorf("B_total = %g, want 3", got)
	}
}

func TestExtractorUnknownVendorFallback(t *testing.T) {
	e, err := NewExtractor(GroupSF, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := testRecord()
	r.Vendor = "X"
	x := e.Extract(r)
	if x[16] != 1 {
		t.Fatalf("first-seen firmware code = %g, want 1", x[16])
	}
}

func TestMask(t *testing.T) {
	samples := []ml.Sample{{X: []float64{10, 20, 30}, Y: 1, SN: "a", Day: 5}}
	out := Mask(samples, []int{2, 0})
	if len(out[0].X) != 2 || out[0].X[0] != 30 || out[0].X[1] != 10 {
		t.Fatalf("Mask = %v", out[0].X)
	}
	if out[0].Y != 1 || out[0].SN != "a" || out[0].Day != 5 {
		t.Fatal("Mask dropped metadata")
	}
	if samples[0].X[0] != 10 {
		t.Fatal("Mask mutated input")
	}
}

// buildFixture builds a small labelled frame: one faulty drive (fails
// day 20) and one healthy drive, observed daily over days 0..20.
func buildFixture(t *testing.T) (*dataset.Frame, labeling.Labels, *Extractor) {
	t.Helper()
	b := dataset.NewFrameBuilder()
	for _, sn := range []string{"faulty", "healthy"} {
		for day := 0; day <= 20; day++ {
			r := dataset.Record{
				SerialNumber: sn, Vendor: "I", Model: "M", Day: day, Firmware: "FW1",
				WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts(),
			}
			r.Smart.Set(smartattr.PowerOnHours, float64(day))
			if err := b.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	labels := labeling.Labels{"faulty": {SerialNumber: "faulty", FailDay: 20}}
	e, err := NewExtractor(GroupS, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b.Finish(), labels, e
}

// buildSamples is the fixture's flat sample set in slice form.
func buildSamples(f *dataset.Frame, labels labeling.Labels, e *Extractor, opts BuildOptions) ([]ml.Sample, error) {
	set, err := BuildSampleSetFrame(f, labels, e, opts)
	if err != nil {
		return nil, err
	}
	return set.All().Materialize(), nil
}

func TestBuildSamplesLabels(t *testing.T) {
	f, labels, e := buildFixture(t)
	opts := BuildOptions{PositiveWindowDays: 7, ExclusionDays: 7}
	samples, err := buildSamples(f, labels, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	var pos, neg, guard int
	for _, s := range samples {
		switch {
		case s.SN == "healthy":
			if s.Y != 0 {
				t.Fatal("healthy sample labelled positive")
			}
			neg++
		case s.Y == 1:
			// Positive window: days 14..20.
			if s.Day <= 13 {
				t.Fatalf("positive at day %d outside window", s.Day)
			}
			pos++
		default:
			guard++
		}
	}
	if pos != 7 {
		t.Fatalf("positives = %d, want 7", pos)
	}
	if neg != 21 {
		t.Fatalf("negatives = %d, want 21", neg)
	}
	// Guard band drops days 7..13; earlier days dropped too because
	// NegativeFromFaulty is false.
	if guard != 0 {
		t.Fatalf("faulty drive leaked %d unlabelled samples", guard)
	}
}

func TestBuildSamplesNegativeFromFaulty(t *testing.T) {
	f, labels, e := buildFixture(t)
	opts := BuildOptions{PositiveWindowDays: 7, ExclusionDays: 7, NegativeFromFaulty: true}
	samples, err := buildSamples(f, labels, e, opts)
	if err != nil {
		t.Fatal(err)
	}
	oldNeg := 0
	for _, s := range samples {
		if s.SN == "faulty" && s.Y == 0 {
			// days 0..6 (guard band covers 7..13)
			if s.Day > 6 {
				t.Fatalf("faulty negative at day %d inside guard band", s.Day)
			}
			oldNeg++
		}
	}
	if oldNeg != 7 {
		t.Fatalf("faulty negatives = %d, want 7", oldNeg)
	}
}

func TestBuildSamplesValidation(t *testing.T) {
	f, labels, e := buildFixture(t)
	if _, err := BuildSampleSetFrame(f, labels, e, BuildOptions{}); err == nil {
		t.Fatal("zero positive window accepted")
	}
	if _, err := BuildSeqSampleSet(f, labels, e, 3, BuildOptions{}); err == nil {
		t.Fatal("zero positive window accepted for sequences")
	}
	if _, err := BuildSeqSampleSet(f, labels, e, 0, DefaultBuildOptions()); err == nil {
		t.Fatal("zero sequence length accepted")
	}
}

func TestBuildSeqSamplesShape(t *testing.T) {
	f, labels, e := buildFixture(t)
	opts := BuildOptions{PositiveWindowDays: 7, ExclusionDays: 7}
	const seqLen = 3
	set, err := BuildSeqSampleSet(f, labels, e, seqLen, opts)
	if err != nil {
		t.Fatal(err)
	}
	samples := set.All().Materialize()
	want := seqLen * e.Width()
	for _, s := range samples {
		if len(s.X) != want {
			t.Fatalf("sequence width = %d, want %d", len(s.X), want)
		}
	}
	// Time-major layout: the S_12 (PowerOnHours) of step t equals
	// day −(seqLen−1−t) relative to the end day.
	idx := smartattr.PowerOnHours.Index()
	for _, s := range samples {
		for step := 0; step < seqLen; step++ {
			wantHours := float64(s.Day - (seqLen - 1 - step))
			if got := s.X[step*e.Width()+idx]; got != wantHours {
				t.Fatalf("day %d step %d hours = %g, want %g", s.Day, step, got, wantHours)
			}
		}
	}
}

func TestPositiveSamplesAt(t *testing.T) {
	f, labels, e := buildFixture(t)
	// 5 days before the day-20 failure → day 15 record.
	pos := PositiveSamplesAt(f, labels, e, 5, 1)
	if len(pos) != 1 {
		t.Fatalf("probes = %d, want 1", len(pos))
	}
	if pos[0].Day != 15 || pos[0].Y != 1 {
		t.Fatalf("probe = %+v", pos[0])
	}
	// A lookahead beyond the telemetry start yields nothing.
	if got := PositiveSamplesAt(f, labels, e, 50, 1); len(got) != 0 {
		t.Fatalf("impossible lookahead produced %d probes", len(got))
	}
}

func TestParseGroup(t *testing.T) {
	for _, g := range AllGroups() {
		got, ok := ParseGroup(g.String())
		if !ok || got != g {
			t.Errorf("ParseGroup(%q) = %v, %v", g.String(), got, ok)
		}
	}
	if _, ok := ParseGroup("XYZ"); ok {
		t.Error("ParseGroup accepted garbage")
	}
}
