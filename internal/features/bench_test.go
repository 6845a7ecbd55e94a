package features

import (
	"fmt"
	"testing"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// benchFleet mirrors fleetFixture for benchmarks: drives observed
// daily, a third of them labelled faulty, three firmware versions.
func benchFleet(b *testing.B, drives, days int) (*dataset.Frame, labeling.Labels) {
	b.Helper()
	fb := dataset.NewFrameBuilder()
	labels := labeling.Labels{}
	for dr := 0; dr < drives; dr++ {
		sn := fmt.Sprintf("D%03d", dr)
		fw := firmware.Version(fmt.Sprintf("FW%d", dr%3))
		for day := 0; day < days; day++ {
			r := dataset.Record{
				SerialNumber: sn, Vendor: "I", Model: "M", Day: day,
				Firmware: fw,
				WCounts:  winevent.NewCounts(), BCounts: bsod.NewCounts(),
			}
			r.Smart.Set(smartattr.PowerOnHours, float64(dr*100+day))
			r.WCounts.Add(winevent.PagingError, float64(day%2))
			if err := fb.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if dr%3 == 0 {
			labels[sn] = labeling.Label{SerialNumber: sn, FailDay: days - 1}
		}
	}
	return fb.Finish(), labels
}

// BenchmarkBuildSampleSetFrameWorkers compares the serial per-drive
// extraction loop against the full fan-out.
func BenchmarkBuildSampleSetFrameWorkers(b *testing.B) {
	f, labels := benchFleet(b, 150, 90)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			opts := DefaultBuildOptions()
			opts.Workers = bc.workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := NewExtractor(GroupSFWB, nil)
				if err != nil {
					b.Fatal(err)
				}
				set, err := BuildSampleSetFrame(f, labels, e, opts)
				if err != nil {
					b.Fatal(err)
				}
				if set.Len() == 0 {
					b.Fatal("no samples")
				}
			}
		})
	}
}
