package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/bsod"
	"repro/internal/firmware"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// The CSV layout is: sn, vendor, model, day, interpolated, firmware,
// S_1..S_16, one column per catalogued Windows event, one per
// catalogued stop code. Header names use the paper's compact labels.

// Header returns the CSV column names in write order.
func Header() []string {
	h := []string{"sn", "vendor", "model", "day", "interpolated", "firmware"}
	for id := smartattr.ID(1); id <= smartattr.Count; id++ {
		h = append(h, id.Label())
	}
	for _, info := range winevent.All() {
		h = append(h, info.ID.Label())
	}
	for _, info := range bsod.All() {
		h = append(h, info.Code.Label())
	}
	return h
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteCSVFrame writes the frame to w, one row per record, drives in
// frame order.
func WriteCSVFrame(w io.Writer, f *Frame) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(Header()); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, 0, 6+smartattr.Count+winevent.Count()+bsod.Count())
	for di := 0; di < f.Drives(); di++ {
		d := f.Drive(di)
		for r := int(d.Start); r < int(d.End); r++ {
			row = append(row[:0],
				d.SerialNumber,
				d.Vendor,
				d.Model,
				strconv.Itoa(int(f.Day(r))),
				strconv.FormatBool(f.Interpolated(r)),
				string(f.FirmwareAt(r)),
			)
			for _, v := range f.SmartRow(r) {
				row = append(row, formatFloat(v))
			}
			for _, v := range f.WRow(r) {
				row = append(row, formatFloat(v))
			}
			for _, v := range f.BRow(r) {
				row = append(row, formatFloat(v))
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("dataset: write record: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSVFrame parses telemetry written by WriteCSVFrame straight into
// a columnar frame, one streamed row at a time. Files produced by the
// MFPA tools are grouped by drive in day order (the builder's fast
// path). Any other row order is buffered and sorted: drives keep their
// first-seen order, each drive's days ascend, and a later row wins on a
// repeated day. A drive whose vendor or model changes is an error.
func ReadCSVFrame(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(Header())
	// The scratch record below is refilled from each row before the
	// next Read, so the reader's row slice can be reused throughout.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	want := Header()
	for i := range want {
		if header[i] != want[i] {
			return nil, fmt.Errorf("dataset: header column %d is %q, want %q", i, header[i], want[i])
		}
	}
	b := NewFrameBuilder()
	scratch := Record{WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts()}
	var unordered *rowSorter // non-nil once row order breaks the builder
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read line %d: %w", line, err)
		}
		if err := parseRowInto(&scratch, row); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if unordered == nil {
			err = b.AppendRow(scratch.SerialNumber, scratch.Vendor, scratch.Model,
				scratch.Day, scratch.Firmware, &scratch.Smart,
				scratch.WCounts, scratch.BCounts, scratch.Interpolated)
			if !errors.Is(err, ErrRowOrder) {
				if err != nil {
					return nil, fmt.Errorf("dataset: line %d: %w", line, err)
				}
				continue
			}
			unordered = newRowSorter(b.Finish())
		}
		if err := unordered.add(&scratch); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
	if unordered != nil {
		return unordered.finish()
	}
	return b.Finish(), nil
}

// rowSorter buffers telemetry in arrival order and sorts it into a
// frame at the end: the slow path of ReadCSVFrame.
type rowSorter struct {
	f     *Frame       // staging arena; drives are not registered on it
	drive []int32      // drive index of every staging row
	ids   []FrameDrive // drive identities in first-seen order
	bySN  map[string]int32
}

// newRowSorter takes over the rows a FrameBuilder accepted. They are in
// valid order and precede every later row, so the arena index of a row
// orders it among all rows of its drive and day.
func newRowSorter(f *Frame) *rowSorter {
	s := &rowSorter{f: f, drive: make([]int32, len(f.day)), ids: f.drives, bySN: f.bySN}
	for i, d := range f.drives {
		for r := d.Start; r < d.End; r++ {
			s.drive[r] = int32(i)
		}
	}
	f.drives, f.bySN = nil, nil
	return s
}

// add buffers one validated record.
func (s *rowSorter) add(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	di, ok := s.bySN[r.SerialNumber]
	if !ok {
		di = int32(len(s.ids))
		s.bySN[r.SerialNumber] = di
		s.ids = append(s.ids, FrameDrive{SerialNumber: r.SerialNumber, Vendor: r.Vendor, Model: r.Model})
	} else if err := checkIdentity(&s.ids[di], r.Vendor, r.Model); err != nil {
		return err
	}
	row := s.f.growRow()
	s.f.setRow(row, r.Day, r.Firmware, &r.Smart, r.WCounts, r.BCounts, r.Interpolated)
	s.drive = append(s.drive, di)
	return nil
}

// finish orders the buffered rows by drive, then day, then arrival,
// keeps the last row of each repeated day, and copies them into a new
// frame.
func (s *rowSorter) finish() (*Frame, error) {
	src := s.f
	order := make([]int, len(src.day))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if s.drive[a] != s.drive[b] {
			return s.drive[a] < s.drive[b]
		}
		return src.day[a] < src.day[b]
	})
	kept := order[:0]
	for k, r := range order {
		if next := k + 1; next < len(order) && s.drive[order[next]] == s.drive[r] && src.day[order[next]] == src.day[r] {
			continue // a later row of the same drive and day wins
		}
		kept = append(kept, r)
	}
	out := NewFrameArena(len(kept))
	out.shareFirmwareTable(src)
	start := 0
	for row, r := range kept {
		out.day[row] = src.day[r]
		out.interp[row] = src.interp[r]
		out.fw[row] = src.fw[r]
		copy(out.SmartRow(row), src.SmartRow(r))
		copy(out.WRow(row), src.WRow(r))
		copy(out.BRow(row), src.BRow(r))
		if last := row + 1; last == len(kept) || s.drive[kept[last]] != s.drive[r] {
			id := &s.ids[s.drive[r]]
			if err := out.AddDrive(id.SerialNumber, id.Vendor, id.Model, start, last); err != nil {
				return nil, err
			}
			start = last
		}
	}
	return out, nil
}

// parseRowInto fills rec from a CSV row, reusing its count slices.
func parseRowInto(rec *Record, row []string) error {
	rec.SerialNumber = row[0]
	rec.Vendor = row[1]
	rec.Model = row[2]
	rec.Firmware = firmware.Version(row[5])
	rec.Interpolated = false
	day, err := strconv.Atoi(row[3])
	if err != nil {
		return fmt.Errorf("bad day %q: %w", row[3], err)
	}
	rec.Day = day
	interp, err := strconv.ParseBool(row[4])
	if err != nil {
		return fmt.Errorf("bad interpolated flag %q: %w", row[4], err)
	}
	rec.Interpolated = interp

	col := 6
	for i := 0; i < smartattr.Count; i++ {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return fmt.Errorf("bad SMART value %q: %w", row[col], err)
		}
		rec.Smart[i] = v
		col++
	}
	for i := 0; i < winevent.Count(); i++ {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return fmt.Errorf("bad W count %q: %w", row[col], err)
		}
		rec.WCounts[i] = v
		col++
	}
	for i := 0; i < bsod.Count(); i++ {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			return fmt.Errorf("bad B count %q: %w", row[col], err)
		}
		rec.BCounts[i] = v
		col++
	}
	return nil
}
