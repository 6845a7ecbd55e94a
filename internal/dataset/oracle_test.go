package dataset

import (
	"repro/internal/bsod"
	"repro/internal/winevent"
)

// This file keeps the record-form preprocessing as a test oracle: a
// deliberately plain, serial rendering of the paper's clean and
// cumulate stages that PreparePipeline is pinned against bit for bit.

// cleanRecords applies the discontinuity optimisation to d and returns
// a new dataset plus statistics: drives containing any interval ≥
// policy.DropGap are removed, and intervals of 2..policy.FillGap days
// are filled with mean records marked Interpolated.
func cleanRecords(d *Dataset, policy GapPolicy) (*Dataset, CleanStats, error) {
	if err := policy.Validate(); err != nil {
		return nil, CleanStats{}, err
	}
	stats := CleanStats{DrivesIn: d.Drives(), RecordsIn: d.Len()}
	out := New()
	out.cumulated = d.cumulated
	for _, sn := range d.order {
		s := d.bySN[sn]
		if s.MaxGap() >= policy.DropGap {
			stats.DrivesDropped++
			continue
		}
		for i := range s.Records {
			if i > 0 {
				prev, cur := &s.Records[i-1], &s.Records[i]
				if gap := cur.Day - prev.Day; gap >= 2 && gap <= policy.FillGap {
					for day := prev.Day + 1; day < cur.Day; day++ {
						if err := out.Append(meanRecord(prev, cur, day)); err != nil {
							return nil, CleanStats{}, err
						}
						stats.RecordsFilled++
					}
				}
			}
			if err := out.Append(s.Records[i].Clone()); err != nil {
				return nil, CleanStats{}, err
			}
		}
	}
	return out, stats, nil
}

// meanRecord synthesises the mean of two adjacent observations for the
// missing day; the firmware version is carried from the earlier record.
func meanRecord(a, b *Record, day int) Record {
	r := Record{
		SerialNumber: a.SerialNumber,
		Vendor:       a.Vendor,
		Model:        a.Model,
		Day:          day,
		Firmware:     a.Firmware,
		WCounts:      winevent.NewCounts(),
		BCounts:      bsod.NewCounts(),
		Interpolated: true,
	}
	for i := range r.Smart {
		r.Smart[i] = (a.Smart[i] + b.Smart[i]) / 2
	}
	for i := range r.WCounts {
		r.WCounts[i] = (a.WCounts[i] + b.WCounts[i]) / 2
	}
	for i := range r.BCounts {
		r.BCounts[i] = (a.BCounts[i] + b.BCounts[i]) / 2
	}
	return r
}

// cumulateRecords converts the daily W and B counts of every series
// into running per-drive totals, in place, and marks d cumulated.
func cumulateRecords(d *Dataset) {
	d.Each(func(s *DriveSeries) {
		for i := 1; i < len(s.Records); i++ {
			prev, cur := &s.Records[i-1], &s.Records[i]
			for j := range cur.WCounts {
				cur.WCounts[j] += prev.WCounts[j]
			}
			for j := range cur.BCounts {
				cur.BCounts[j] += prev.BCounts[j]
			}
		}
	})
	d.cumulated = true
}
