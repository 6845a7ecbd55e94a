package features

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// BuildSampleSetFrame extracts the flat labelled samples of a prepared
// frame into one columnar ml.SampleSet — the arena that the zero-copy
// view pipeline (splits, under-sampling, CV folds, grid search, feature
// selection) operates on. Construction is two-pass: a labelling pass
// over the day column counts each drive's surviving rows, then every
// drive extracts straight into its pre-computed arena segment in
// parallel — no per-row vector allocations and no concatenation copy.
// Feature extraction copies or gathers column rows, and firmware
// encoding is looked up only when a drive's interned code changes. Row
// content and order (drive order, then day) are identical at any
// worker count.
func BuildSampleSetFrame(f *dataset.Frame, labels labeling.Labels, e *Extractor, opts BuildOptions) (*ml.SampleSet, error) {
	if opts.PositiveWindowDays < 1 {
		return nil, fmt.Errorf("features: PositiveWindowDays %d must be ≥ 1", opts.PositiveWindowDays)
	}
	e.primeFrame(f)
	width := e.Width()
	counts, err := parallel.Map(f.Drives(), opts.Workers, func(i int) (int, error) {
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		n := 0
		for r := int(d.Start); r < int(d.End); r++ {
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
	total := offs[f.Drives()]
	if total == 0 {
		return nil, fmt.Errorf("features: no samples produced")
	}
	x := make([]float64, total*width)
	y := make([]int8, total)
	day := make([]int32, total)
	sn := make([]string, total)
	if err := parallel.Do(f.Drives(), opts.Workers, func(i int) error {
		d := f.Drive(i)
		label, faulty := labels[d.SerialNumber]
		fw := e.newFWCache(d.Vendor)
		j := offs[i]
		for r := int(d.Start); r < int(d.End); r++ {
			rd := int(f.Day(r))
			yk, keep := rowLabel(faulty, label.FailDay, rd, &opts)
			if !keep {
				continue
			}
			e.frameRow(f, r, fw, x[j*width:(j+1)*width])
			y[j] = yk
			day[j] = int32(rd)
			sn[j] = d.SerialNumber
			j++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return ml.NewSampleSet(width, x, y, day, sn)
}

// fwCache memoises one drive's firmware feature: the encoder is looked
// up only when the drive's interned firmware id changes. It is nil for
// groups without the firmware feature.
type fwCache struct {
	enc  *firmware.Encoder
	id   int32
	code float64
}

func (e *Extractor) newFWCache(vendor string) *fwCache {
	if !e.group.Firmware {
		return nil
	}
	return &fwCache{enc: e.encoder(vendor), id: -1}
}

// frameRow writes the feature vector of frame row r into row (e.Width()
// long). fw must come from newFWCache for the row's drive; after
// priming, frameRow only reads the extractor.
func (e *Extractor) frameRow(f *dataset.Frame, r int, fw *fwCache, row []float64) {
	g := e.group
	k := 0
	if g.SMART {
		k += copy(row[k:], f.SmartRow(r))
	}
	if g.Firmware {
		if id := f.FirmwareID(r); id != fw.id {
			fw.code = fw.enc.Encode(f.FirmwareByID(id))
			fw.id = id
		}
		row[k] = fw.code
		k++
	}
	if g.WEvents {
		w := f.WRow(r)
		for _, idx := range e.wIdx {
			row[k] = w[idx]
			k++
		}
	}
	if g.BSOD {
		b := f.BRow(r)
		k += copy(row[k:], b)
		// Same index-order summation as Counts.Total.
		tot := 0.0
		for _, v := range b {
			tot += v
		}
		row[k] = tot
	}
}
