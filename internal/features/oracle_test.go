package features

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
)

// buildSampleSetRecords is the record-form sample build that
// BuildSampleSetFrame is pinned against: prime the firmware encoders
// over every record in dataset order, then label and extract each
// record serially.
func buildSampleSetRecords(data *dataset.Dataset, labels labeling.Labels, e *Extractor, opts BuildOptions) (*ml.SampleSet, error) {
	if opts.PositiveWindowDays < 1 {
		return nil, fmt.Errorf("features: PositiveWindowDays %d must be ≥ 1", opts.PositiveWindowDays)
	}
	if e.group.Firmware {
		data.Each(func(s *dataset.DriveSeries) {
			for i := range s.Records {
				e.encoder(s.Records[i].Vendor).Encode(s.Records[i].Firmware)
			}
		})
	}
	var (
		x   []float64
		y   []int8
		day []int32
		sn  []string
	)
	data.Each(func(s *dataset.DriveSeries) {
		label, faulty := labels[s.SerialNumber]
		for i := range s.Records {
			r := &s.Records[i]
			yk, keep := rowLabel(faulty, label.FailDay, r.Day, &opts)
			if !keep {
				continue
			}
			x = append(x, e.Extract(r)...)
			y = append(y, yk)
			day = append(day, int32(r.Day))
			sn = append(sn, s.SerialNumber)
		}
	})
	if len(y) == 0 {
		return nil, fmt.Errorf("features: no samples produced")
	}
	return ml.NewSampleSet(e.Width(), x, y, day, sn)
}
