package features

import (
	"math"
	"testing"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// requireSetsEqualBits asserts two sample sets agree exactly, down to
// the bit pattern of every feature value.
func requireSetsEqualBits(t *testing.T, want, got *ml.SampleSet) {
	t.Helper()
	if want.Len() != got.Len() || want.Width() != got.Width() {
		t.Fatalf("shape %dx%d, want %dx%d", got.Len(), got.Width(), want.Len(), want.Width())
	}
	for i := 0; i < want.Len(); i++ {
		wx, gx := want.Row(i), got.Row(i)
		for j := range wx {
			if math.Float64bits(wx[j]) != math.Float64bits(gx[j]) {
				t.Fatalf("row %d col %d: %x, want %x", i, j, math.Float64bits(gx[j]), math.Float64bits(wx[j]))
			}
		}
		if want.Y(i) != got.Y(i) || want.Day(i) != got.Day(i) || want.SN(i) != got.SN(i) {
			t.Fatalf("row %d: y/day/sn = %d/%d/%s, want %d/%d/%s",
				i, got.Y(i), got.Day(i), got.SN(i), want.Y(i), want.Day(i), want.SN(i))
		}
	}
}

// TestBuildSeqSampleSetMatchesOracle pins the windowed sequence set to
// the []ml.Sample oracle — every window's bits, label, day, serial and
// order — across window lengths and worker counts, on a fleet with
// drives too short for a window and a faulty drive whose rows all fall
// after its failure (neither may take arena space or shift offsets).
func TestBuildSeqSampleSetMatchesOracle(t *testing.T) {
	d, labels, _ := fleetFixture(t, 20)
	b := dataset.NewFrameBuilder()
	d.Each(func(s *dataset.DriveSeries) {
		for _, r := range s.Records {
			if err := b.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	})
	for day := 0; day < 3; day++ {
		r := dataset.Record{SerialNumber: "SHORT", Vendor: "I", Model: "M", Day: day, Firmware: "FW9",
			WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts()}
		r.Smart.Set(smartattr.PowerOnHours, float64(day))
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	labels["D004"] = labeling.Label{SerialNumber: "D004", FailDay: -1}
	f := b.Finish()
	for _, seqLen := range []int{1, 2, 5} {
		oracleExt, err := NewExtractor(GroupSFWB, nil)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := BuildSeqSamples(f, labels, oracleExt, seqLen, DefaultBuildOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, err := ml.FromSamples(samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 0, 3} {
			e, err := NewExtractor(GroupSFWB, nil)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultBuildOptions()
			opts.Workers = w
			got, err := BuildSeqSampleSet(f, labels, e, seqLen, opts)
			if err != nil {
				t.Fatalf("seqLen=%d workers=%d: %v", seqLen, w, err)
			}
			if !got.Windowed() {
				t.Fatal("sequence set is not windowed")
			}
			requireSetsEqualBits(t, want, got)
		}
	}
}

// TestBuildSampleSetFrameMatchesRecordPath pins the frame extractor to
// the record-form oracle for every feature group, including the
// first-seen firmware encoding that priming fixes in dataset order.
func TestBuildSampleSetFrameMatchesRecordPath(t *testing.T) {
	d, labels, _ := fleetFixture(t, 25)
	f := d
	opts := DefaultBuildOptions()
	for _, g := range AllGroups() {
		recExt, err := NewExtractor(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := buildSampleSetRecords(d, labels, recExt, opts)
		if err != nil {
			t.Fatal(err)
		}
		frameExt, err := NewExtractor(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildSampleSetFrame(f, labels, frameExt, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSetsEqualBits(t, want, got)
	}
}

// TestBuildSampleSetFrameWorkersIdentical asserts the counted two-pass
// frame extraction is worker-count independent.
func TestBuildSampleSetFrameWorkersIdentical(t *testing.T) {
	d, labels, _ := fleetFixture(t, 30)
	f := d
	opts := DefaultBuildOptions()
	opts.Workers = 1
	serialExt, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildSampleSetFrame(f, labels, serialExt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 3, 8} {
		e, err := NewExtractor(GroupSFWB, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = w
		got, err := BuildSampleSetFrame(f, labels, e, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		requireSetsEqualBits(t, want, got)
	}
}
