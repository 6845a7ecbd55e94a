package labeling

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/ticket"
)

// IdentifyFrame resolves failure times for every ticketed drive present
// in f. The tracking point closest to the earliest ticket's IMT (found
// by binary search on the drive's day column, earlier day winning ties)
// is the failure day when it lies within θ of the IMT; otherwise the
// label falls back to IMT − θ, clamped at day 0. Ticketed drives with
// no telemetry are skipped (they cannot contribute training samples).
func IdentifyFrame(f *dataset.Frame, tickets *ticket.Store, theta int) (Labels, error) {
	if theta < 0 {
		return nil, fmt.Errorf("labeling: theta %d must be ≥ 0", theta)
	}
	labels := make(Labels)
	for _, sn := range tickets.SerialNumbers() {
		t, ok := tickets.First(sn)
		if !ok {
			continue
		}
		di, ok := f.DriveIndex(sn)
		if !ok {
			continue
		}
		d := f.Drive(di)
		day := closestDay(f, d, t.IMT)
		interval := t.IMT - day
		if interval < 0 {
			interval = -interval
		}
		label := Label{SerialNumber: sn, IMT: t.IMT, Interval: interval}
		if interval <= theta {
			// The tracking point closest to the IMT is the failure time.
			label.FailDay = day
		} else {
			// Fall back to IMT − θ: the drive was certainly already
			// degrading by then, and labelling any earlier would mix
			// healthy-looking data into the positive class.
			label.FailDay = t.IMT - theta
			label.Fallback = true
		}
		if label.FailDay < 0 {
			label.FailDay = 0
		}
		labels[sn] = label
	}
	return labels, nil
}

// closestDay returns the drive's observation day nearest to target
// (earlier wins ties). Frame drives always have at least one row.
func closestDay(f *dataset.Frame, d *dataset.FrameDrive, target int) int {
	lo, hi := int(d.Start), int(d.End)
	i := lo + sort.Search(hi-lo, func(k int) bool { return int(f.Day(lo+k)) >= target })
	switch {
	case i == lo:
		return int(f.Day(lo))
	case i == hi:
		return int(f.Day(hi - 1))
	}
	before, after := int(f.Day(i-1)), int(f.Day(i))
	if target-before <= after-target {
		return before
	}
	return after
}
