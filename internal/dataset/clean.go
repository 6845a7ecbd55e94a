package dataset

import "fmt"

// GapPolicy configures the discontinuity optimisation of the paper's
// Section III-C(1): consumer machines are powered on irregularly, so
// telemetry has day gaps that hurt model quality.
type GapPolicy struct {
	// DropGap removes a drive whose series contains an interval of
	// DropGap days or more between consecutive observations (the paper
	// uses 10).
	DropGap int
	// FillGap mean-fills intervals of up to FillGap days: for a gap of
	// g days (g ≤ FillGap), g−1 synthetic records are inserted carrying
	// the mean of the two adjacent observations (the paper uses 3).
	FillGap int
}

// DefaultGapPolicy is the paper's configuration: drop ≥ 10, fill ≤ 3.
func DefaultGapPolicy() GapPolicy { return GapPolicy{DropGap: 10, FillGap: 3} }

// Validate checks the policy's internal consistency.
func (p GapPolicy) Validate() error {
	if p.DropGap < 2 {
		return fmt.Errorf("dataset: gap policy DropGap %d must be ≥ 2", p.DropGap)
	}
	if p.FillGap < 1 {
		return fmt.Errorf("dataset: gap policy FillGap %d must be ≥ 1", p.FillGap)
	}
	if p.FillGap >= p.DropGap {
		return fmt.Errorf("dataset: gap policy FillGap %d must be < DropGap %d", p.FillGap, p.DropGap)
	}
	return nil
}

// CleanStats summarises what the clean stage of PreparePipeline did.
type CleanStats struct {
	DrivesIn      int
	DrivesDropped int
	RecordsIn     int
	RecordsFilled int
}

// GapHistogram tallies, over all drives, how many consecutive-record
// intervals have each length in days (index = gap length; index 1
// counts one-day steps). Used by the Fig. 6 experiment to show the
// discontinuity structure of CSS telemetry. Non-positive gaps — which
// AddDrive and the frame builders reject, so only a hand-assembled
// frame can hold them — are clamped into the index-0 bucket instead of
// panicking on a negative index.
func GapHistogram(f *Frame, maxGap int) []int {
	hist := make([]int, maxGap+1)
	for i := range f.drives {
		d := &f.drives[i]
		for r := d.Start + 1; r < d.End; r++ {
			g := int(f.day[r] - f.day[r-1])
			if g < 0 {
				g = 0
			}
			if g > maxGap {
				g = maxGap
			}
			hist[g]++
		}
	}
	return hist
}

// MaxGap returns the largest interval in days between consecutive
// observations of drive i, or 0 for a drive with fewer than two rows.
// A gap of 1 means consecutive days.
func (f *Frame) MaxGap(i int) int {
	d := &f.drives[i]
	max := 0
	for r := d.Start + 1; r < d.End; r++ {
		if g := int(f.day[r] - f.day[r-1]); g > max {
			max = g
		}
	}
	return max
}
