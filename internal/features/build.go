package features

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// BuildOptions controls labelled-sample construction.
type BuildOptions struct {
	// PositiveWindowDays: records of a faulty drive within this many
	// days before (and including) the labelled failure day become
	// positive samples (the paper uses 7, 14, or 21).
	PositiveWindowDays int
	// NegativeFromFaulty, when set, also emits a faulty drive's records
	// *older* than ExclusionDays before failure as negatives. The paper
	// draws negatives from healthy drives only, so this defaults off.
	NegativeFromFaulty bool
	// ExclusionDays guards the label boundary: faulty-drive records in
	// (failDay−PositiveWindowDays−ExclusionDays, failDay−PositiveWindowDays]
	// are dropped entirely — they are too close to failure to be safe
	// negatives but too early to be confident positives.
	ExclusionDays int
	// Workers bounds the per-drive extraction goroutines; 0 selects
	// GOMAXPROCS, 1 reproduces serial extraction. Sample content and
	// order are identical at any setting.
	Workers int
}

// DefaultBuildOptions matches the paper: 7-day positive window,
// negatives from healthy drives only, 7 guard days.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{PositiveWindowDays: 7, ExclusionDays: 7}
}

// rowLabel applies the labelling rules of BuildOptions to one record
// of a drive: the returned label is valid only when keep is true —
// dropped records are post-failure stragglers, guard-band rows, and
// (by default) the early history of faulty drives.
func rowLabel(faulty bool, failDay, day int, opts *BuildOptions) (y int8, keep bool) {
	switch {
	case !faulty:
		return 0, true
	case day > failDay:
		return 0, false
	case day > failDay-opts.PositiveWindowDays:
		return 1, true
	case day > failDay-opts.PositiveWindowDays-opts.ExclusionDays:
		return 0, false // guard band
	default:
		return 0, opts.NegativeFromFaulty
	}
}

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

// PositiveSamplesAt extracts one evaluation sample per labelled drive of
// f at exactly lookahead days before its labelled failure (nearest row
// within ±tolerance days, earlier day winning ties). Used by the
// Fig. 19 lookahead sweep: can the model already see the failure N
// days out? Samples follow f's drive order.
func PositiveSamplesAt(f *dataset.Frame, labels labeling.Labels, e *Extractor, lookahead, tolerance int) []ml.Sample {
	e.primeFrame(f)
	var samples []ml.Sample
	for i := 0; i < f.Drives(); i++ {
		d := f.Drive(i)
		label, ok := labels[d.SerialNumber]
		if !ok || d.Rows() == 0 {
			continue
		}
		target := label.FailDay - lookahead
		if target < 0 {
			continue
		}
		r := closestRow(f, d, target)
		day := int(f.Day(r))
		diff := day - target
		if diff < 0 {
			diff = -diff
		}
		if diff > tolerance || day > label.FailDay {
			continue
		}
		x := make([]float64, e.Width())
		e.frameRow(f, r, e.newFWCache(d.Vendor), x)
		samples = append(samples, ml.Sample{X: x, Y: 1, SN: d.SerialNumber, Day: day})
	}
	return samples
}

// closestRow returns the row of drive d whose day is nearest to target
// (earlier wins ties). d must have at least one row.
func closestRow(f *dataset.Frame, d *dataset.FrameDrive, target int) int {
	lo, hi := int(d.Start), int(d.End)
	i := lo + sort.Search(hi-lo, func(k int) bool { return int(f.Day(lo+k)) >= target })
	switch {
	case i == lo:
		return lo
	case i == hi:
		return hi - 1
	}
	if target-int(f.Day(i-1)) <= int(f.Day(i))-target {
		return i - 1
	}
	return i
}
