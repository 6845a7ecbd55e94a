package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"

	"repro/internal/bsod"
	"repro/internal/winevent"
)

// This file keeps the record-form telemetry as a test oracle: a
// deliberately plain store of per-drive record slices, and serial
// renderings of the paper's clean and cumulate stages that
// PreparePipeline is pinned against bit for bit.

// recordSet holds drive series keyed by serial number, drives in
// first-seen order. Append keeps each series sorted by day, and a
// second record for a (drive, day) replaces the first: the ordering
// rules ReadCSVFrame must reproduce.
type recordSet struct {
	bySN      map[string]*DriveSeries
	order     []string
	cumulated bool // W/B counts hold running totals
}

func newRecordSet() *recordSet { return &recordSet{bySN: make(map[string]*DriveSeries)} }

func (d *recordSet) Append(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	s, ok := d.bySN[r.SerialNumber]
	if !ok {
		s = &DriveSeries{SerialNumber: r.SerialNumber, Vendor: r.Vendor, Model: r.Model}
		d.bySN[r.SerialNumber] = s
		d.order = append(d.order, r.SerialNumber)
	}
	if s.Vendor != r.Vendor || s.Model != r.Model {
		return fmt.Errorf("drive %s changes identity", r.SerialNumber)
	}
	i := sort.Search(len(s.Records), func(i int) bool { return s.Records[i].Day >= r.Day })
	if i < len(s.Records) && s.Records[i].Day == r.Day {
		s.Records[i] = r
		return nil
	}
	s.Records = append(s.Records, Record{})
	copy(s.Records[i+1:], s.Records[i:])
	s.Records[i] = r
	return nil
}

func (d *recordSet) Series(sn string) (*DriveSeries, bool) {
	s, ok := d.bySN[sn]
	return s, ok
}

func (d *recordSet) Each(fn func(*DriveSeries)) {
	for _, sn := range d.order {
		fn(d.bySN[sn])
	}
}

func (d *recordSet) Drives() int { return len(d.order) }

func (d *recordSet) Len() int {
	n := 0
	for _, s := range d.bySN {
		n += len(s.Records)
	}
	return n
}

func (d *recordSet) Cumulated() bool { return d.cumulated }

func (d *recordSet) SerialNumbers() []string { return append([]string(nil), d.order...) }

// filter returns the drives keep accepts; series are shared.
func (d *recordSet) filter(keep func(*DriveSeries) bool) *recordSet {
	out := newRecordSet()
	out.cumulated = d.cumulated
	d.Each(func(s *DriveSeries) {
		if keep(s) {
			out.bySN[s.SerialNumber] = s
			out.order = append(out.order, s.SerialNumber)
		}
	})
	return out
}

// Clone returns a deep copy.
func (d *recordSet) Clone() *recordSet {
	out := newRecordSet()
	out.cumulated = d.cumulated
	d.Each(func(s *DriveSeries) {
		c := &DriveSeries{SerialNumber: s.SerialNumber, Vendor: s.Vendor, Model: s.Model,
			Records: make([]Record, len(s.Records))}
		for i := range s.Records {
			c.Records[i] = s.Records[i].Clone()
		}
		out.bySN[s.SerialNumber] = c
		out.order = append(out.order, s.SerialNumber)
	})
	return out
}

// frameOf streams d through a FrameBuilder, keeping the cumulated
// marker.
func frameOf(d *recordSet) (*Frame, error) {
	b := NewFrameBuilder()
	var err error
	d.Each(func(s *DriveSeries) {
		for i := range s.Records {
			if err == nil {
				err = b.Append(s.Records[i])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	f := b.Finish()
	f.cumulated = d.cumulated
	return f, nil
}

// recordsOf copies f into record form through Frame.Each.
func recordsOf(f *Frame) *recordSet {
	out := newRecordSet()
	out.cumulated = f.Cumulated()
	f.Each(func(s *DriveSeries) {
		for i := range s.Records {
			s.Records[i] = s.Records[i].Clone()
		}
		out.bySN[s.SerialNumber] = s
		out.order = append(out.order, s.SerialNumber)
	})
	return out
}

// writeCSVRecords writes d row by row in the CSV layout.
func writeCSVRecords(w io.Writer, d *recordSet) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(Header()); err != nil {
		return err
	}
	var err error
	d.Each(func(s *DriveSeries) {
		for i := range s.Records {
			if err == nil {
				err = cw.Write(csvRow(&s.Records[i]))
			}
		}
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// readCSVRecords is the record-form CSV reader oracle: every row
// appended in file order under the recordSet ordering rules.
func readCSVRecords(in io.Reader) (*recordSet, error) {
	cr := csv.NewReader(in)
	cr.FieldsPerRecord = len(Header())
	header, err := cr.Read()
	if err != nil {
		return nil, err
	}
	for i, h := range Header() {
		if header[i] != h {
			return nil, fmt.Errorf("header column %d is %q", i, header[i])
		}
	}
	d := newRecordSet()
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		r := Record{WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts()}
		if err := parseRowInto(&r, row); err != nil {
			return nil, err
		}
		if err := d.Append(r); err != nil {
			return nil, err
		}
	}
}

// cleanRecords applies the discontinuity optimisation to d and returns
// a new dataset plus statistics: drives containing any interval ≥
// policy.DropGap are removed, and intervals of 2..policy.FillGap days
// are filled with mean records marked Interpolated.
func cleanRecords(d *recordSet, policy GapPolicy) (*recordSet, CleanStats, error) {
	if err := policy.Validate(); err != nil {
		return nil, CleanStats{}, err
	}
	stats := CleanStats{DrivesIn: d.Drives(), RecordsIn: d.Len()}
	out := newRecordSet()
	out.cumulated = d.cumulated
	for _, sn := range d.order {
		s := d.bySN[sn]
		if maxGap(s) >= policy.DropGap {
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
func cumulateRecords(d *recordSet) {
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

// maxGap returns the largest day interval between consecutive records.
func maxGap(s *DriveSeries) int {
	max := 0
	for i := 1; i < len(s.Records); i++ {
		if g := s.Records[i].Day - s.Records[i-1].Day; g > max {
			max = g
		}
	}
	return max
}
