package features

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// buildSampleSetRecords is the record-form sample build that
// BuildSampleSetFrame is pinned against: prime the firmware encoders
// over every record in dataset order, then label and extract each
// record serially.
func buildSampleSetRecords(data *dataset.Frame, labels labeling.Labels, e *Extractor, opts BuildOptions) (*ml.SampleSet, error) {
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

// BuildSeqSamples is the []ml.Sample sequence build that
// BuildSeqSampleSet is pinned against.
//
// BuildSeqSamples constructs sequence samples for the CNN_LSTM: sliding
// windows of seqLen consecutive *rows* per drive, flattened time-major
// (X[t*width+f]). A window is labelled by its final row under the
// BuildOptions rules. Because consumer telemetry is discontinuous, the
// rows inside a window may span far more calendar days than seqLen —
// exactly the data-quality hazard the paper blames for CNN_LSTM's
// weaker results.
//
// Each drive's rows are extracted once into a drive arena, and every
// window's X is a capped subslice of it (consecutive time-major rows
// are contiguous), so overlapping windows share feature data. Sample
// order is drive order, then end row; the output is identical at any
// worker count.
func BuildSeqSamples(f *dataset.Frame, labels labeling.Labels, e *Extractor, seqLen int, opts BuildOptions) ([]ml.Sample, error) {
	if seqLen < 1 {
		return nil, fmt.Errorf("features: seqLen %d must be ≥ 1", seqLen)
	}
	if opts.PositiveWindowDays < 1 {
		return nil, fmt.Errorf("features: PositiveWindowDays %d must be ≥ 1", opts.PositiveWindowDays)
	}
	e.primeFrame(f)
	width := e.Width()
	counts, err := parallel.Map(f.Drives(), opts.Workers, func(i int) (int, error) {
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		n := 0
		for r := int(d.Start) + seqLen - 1; r < int(d.End); r++ {
			if _, keep := rowLabel(faulty, label.FailDay, int(f.Day(r)), &opts); keep {
				n++
			}
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}
	offs := make([]int, f.Drives()+1)
	for i, c := range counts {
		offs[i+1] = offs[i] + c
	}
	if offs[f.Drives()] == 0 {
		return nil, fmt.Errorf("features: no sequence samples produced")
	}
	samples := make([]ml.Sample, offs[f.Drives()])
	if err := parallel.Do(f.Drives(), opts.Workers, func(i int) error {
		if offs[i] == offs[i+1] {
			return nil
		}
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		rows := make([]float64, d.Rows()*width)
		fw := e.newFWCache(d.Vendor)
		for k := 0; k < d.Rows(); k++ {
			e.frameRow(f, int(d.Start)+k, fw, rows[k*width:(k+1)*width])
		}
		j := offs[i]
		for end := seqLen - 1; end < d.Rows(); end++ {
			day := int(f.Day(int(d.Start) + end))
			y, keep := rowLabel(faulty, label.FailDay, day, &opts)
			if !keep {
				continue
			}
			lo, hi := (end-seqLen+1)*width, (end+1)*width
			samples[j] = ml.Sample{X: rows[lo:hi:hi], Y: int(y), SN: d.SerialNumber, Day: day}
			j++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return samples, nil
}
