package labeling

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/ticket"
)

// identifyRecords is the record-form labelling oracle that IdentifyFrame
// is pinned against: a linear closest-record lookup per ticketed drive.
func identifyRecords(data *dataset.Frame, tickets *ticket.Store, theta int) (Labels, error) {
	if theta < 0 {
		return nil, fmt.Errorf("labeling: theta %d must be ≥ 0", theta)
	}
	labels := make(Labels)
	for _, sn := range tickets.SerialNumbers() {
		t, ok := tickets.First(sn)
		if !ok {
			continue
		}
		series, ok := data.Series(sn)
		if !ok {
			continue
		}
		rec := closest(series, t.IMT)
		interval := t.IMT - rec.Day
		if interval < 0 {
			interval = -interval
		}
		label := Label{SerialNumber: sn, IMT: t.IMT, Interval: interval}
		if interval <= theta {
			label.FailDay = rec.Day
		} else {
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

// closest returns the record whose Day is nearest to day, the earlier
// one on a tie.
func closest(s *dataset.DriveSeries, day int) *dataset.Record {
	best := &s.Records[0]
	for i := range s.Records {
		r := &s.Records[i]
		if abs(r.Day-day) < abs(best.Day-day) {
			best = r
		}
	}
	return best
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
