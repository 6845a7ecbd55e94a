package dataset

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bsod"
	"repro/internal/firmware"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// Column widths of the frame arena. SMART is a compile-time constant;
// the W/B catalogue sizes are fixed at init.
var (
	wWidth = winevent.Count()
	bWidth = bsod.Count()
)

const smartWidth = smartattr.Count

// FrameDrive is one drive's identity and row range within a Frame.
// Rows [Start, End) of the arena belong to the drive, in strictly
// increasing day order.
type FrameDrive struct {
	SerialNumber string
	Vendor       string
	Model        string
	Start, End   int32
}

// Rows returns the drive's record count.
func (d *FrameDrive) Rows() int { return int(d.End - d.Start) }

// Frame is the one in-memory form of drive-day telemetry: a columnar
// (structure-of-arrays) arena with one flat column per field — day
// index, the 16 SMART attributes, the W and B counters, an interned
// firmware code, and the interpolated flag — plus the per-drive row
// ranges and identity strings. Drives keep their registration order
// and each drive's rows are in strictly increasing day order, so the
// preprocessing pipeline streams each drive's rows without touching
// per-record heap objects.
//
// A frame built by NewFrameArena is mutable while it is being filled
// (the Set*/AddDrive/Intern* methods); once handed to readers it must
// be treated as immutable. Drive row ranges do not have to cover the
// whole arena (the fleet simulator leaves slack rows between drives,
// and the FilterVendor and Until views share the arena of their
// parent), so all iteration goes through the drives' [Start, End)
// ranges, never over raw rows.
type Frame struct {
	drives []FrameDrive
	bySN   map[string]int32

	day    []int32
	interp []bool
	fw     []int32 // index into fwTab
	smart  []float64
	w      []float64
	b      []float64

	fwTab []firmware.Version
	fwIdx map[firmware.Version]int32

	length    int // total rows covered by drives
	cumulated bool
}

// NewFrameArena allocates a frame whose columns hold rows rows, with no
// drives registered yet. Builders fill columns (concurrently for
// disjoint row ranges) and then register each drive's range serially
// with AddDrive.
func NewFrameArena(rows int) *Frame {
	return &Frame{
		bySN:   make(map[string]int32),
		day:    make([]int32, rows),
		interp: make([]bool, rows),
		fw:     make([]int32, rows),
		smart:  make([]float64, rows*smartWidth),
		w:      make([]float64, rows*wWidth),
		b:      make([]float64, rows*bWidth),
		fwIdx:  make(map[firmware.Version]int32),
	}
}

// Drives returns the number of drives.
func (f *Frame) Drives() int { return len(f.drives) }

// Drive returns drive i in registration order. The
// pointer aliases frame state; callers must not modify it.
func (f *Frame) Drive(i int) *FrameDrive { return &f.drives[i] }

// DriveIndex returns the index of the drive with the given serial
// number, if present.
func (f *Frame) DriveIndex(sn string) (int, bool) {
	i, ok := f.bySN[sn]
	return int(i), ok
}

// Len returns the total number of records (rows covered by drives).
func (f *Frame) Len() int { return f.length }

// ArenaRows returns the arena capacity in rows, which can exceed Len
// when drive ranges leave slack between them.
func (f *Frame) ArenaRows() int { return len(f.day) }

// Cumulated reports whether the W/B columns hold running totals (set by
// PreparePipeline's cumulate stage, which refuses to run twice).
func (f *Frame) Cumulated() bool { return f.cumulated }

// Day returns the observation day of row.
func (f *Frame) Day(row int) int32 { return f.day[row] }

// SetDay records the observation day of row.
func (f *Frame) SetDay(row int, day int32) { f.day[row] = day }

// Interpolated reports whether row was synthesised by mean-fill.
func (f *Frame) Interpolated(row int) bool { return f.interp[row] }

// SetInterpolated marks row as synthesised.
func (f *Frame) SetInterpolated(row int, v bool) { f.interp[row] = v }

// SmartRow returns the 16 SMART values of row. The slice aliases the
// arena; builders write through it, readers must not.
func (f *Frame) SmartRow(row int) []float64 {
	off := row * smartWidth
	return f.smart[off : off+smartWidth : off+smartWidth]
}

// WRow returns the W counter vector of row (daily counts, or running
// totals after the cumulative transform). Aliases the arena.
func (f *Frame) WRow(row int) []float64 {
	off := row * wWidth
	return f.w[off : off+wWidth : off+wWidth]
}

// BRow returns the B counter vector of row. Aliases the arena.
func (f *Frame) BRow(row int) []float64 {
	off := row * bWidth
	return f.b[off : off+bWidth : off+bWidth]
}

// FirmwareID returns the interned firmware code of row. Codes are
// frame-local; use FirmwareByID to recover the version string.
func (f *Frame) FirmwareID(row int) int32 { return f.fw[row] }

// SetFirmwareID stamps row with an interned firmware code obtained
// from InternFirmware (or copied from another row of a frame sharing
// the same table). Safe to call concurrently for disjoint rows.
func (f *Frame) SetFirmwareID(row int, id int32) { f.fw[row] = id }

// FirmwareByID resolves an interned firmware code.
func (f *Frame) FirmwareByID(id int32) firmware.Version { return f.fwTab[id] }

// FirmwareAt returns the firmware version of row.
func (f *Frame) FirmwareAt(row int) firmware.Version { return f.fwTab[f.fw[row]] }

// InternFirmware returns the frame-local code of v, adding it to the
// table on first sight. Not safe for concurrent use: intern serially
// (or copy codes between frames sharing a table).
func (f *Frame) InternFirmware(v firmware.Version) int32 {
	if id, ok := f.fwIdx[v]; ok {
		return id
	}
	id := int32(len(f.fwTab))
	f.fwTab = append(f.fwTab, v)
	f.fwIdx[v] = id
	return id
}

// SetFirmware stamps row with version v, interning it. Serial-only.
func (f *Frame) SetFirmware(row int, v firmware.Version) {
	f.fw[row] = f.InternFirmware(v)
}

// FillFirmware stamps rows [start, end) with version v. Serial-only.
func (f *Frame) FillFirmware(start, end int, v firmware.Version) {
	id := f.InternFirmware(v)
	for row := start; row < end; row++ {
		f.fw[row] = id
	}
}

// shareFirmwareTable makes dst's firmware table (and intern index) a
// copy of src's, so workers filling dst can copy codes straight from
// src rows without interning.
func (dst *Frame) shareFirmwareTable(src *Frame) {
	dst.fwTab = append(dst.fwTab[:0], src.fwTab...)
	dst.fwIdx = make(map[firmware.Version]int32, len(src.fwIdx))
	for v, id := range src.fwIdx {
		dst.fwIdx[v] = id
	}
}

// AddDrive registers rows [start, end) as one drive's series. Must be
// called serially, in the intended drive order, after the rows are
// filled. The day column of the range is validated once here — strictly
// increasing days, non-negative — so every downstream pass (gap
// analysis, fill, labelling, windowed iteration) can assume
// monotonicity instead of re-checking it.
func (f *Frame) AddDrive(sn, vendor, model string, start, end int) error {
	if sn == "" {
		return errors.New("dataset: frame drive has empty serial number")
	}
	if start < 0 || end > len(f.day) || start >= end {
		return fmt.Errorf("dataset: frame drive %s has bad row range [%d, %d)", sn, start, end)
	}
	if _, dup := f.bySN[sn]; dup {
		return fmt.Errorf("dataset: frame drive %s registered twice", sn)
	}
	if f.day[start] < 0 {
		return fmt.Errorf("dataset: frame drive %s has negative day %d", sn, f.day[start])
	}
	for row := start + 1; row < end; row++ {
		if f.day[row] <= f.day[row-1] {
			return fmt.Errorf("dataset: frame drive %s days not strictly increasing at row %d (%d after %d)",
				sn, row, f.day[row], f.day[row-1])
		}
	}
	f.bySN[sn] = int32(len(f.drives))
	f.drives = append(f.drives, FrameDrive{
		SerialNumber: sn, Vendor: vendor, Model: model,
		Start: int32(start), End: int32(end),
	})
	f.length += end - start
	return nil
}

// view returns a read-only frame sharing f's columns, firmware table
// and cumulated marker, with no drives registered yet.
func (f *Frame) view() *Frame {
	return &Frame{
		bySN:      make(map[string]int32),
		day:       f.day,
		interp:    f.interp,
		fw:        f.fw,
		smart:     f.smart,
		w:         f.w,
		b:         f.b,
		fwTab:     f.fwTab,
		fwIdx:     f.fwIdx,
		cumulated: f.cumulated,
	}
}

// addViewDrive registers d on a view without re-validating its rows.
func (f *Frame) addViewDrive(d FrameDrive) {
	f.bySN[d.SerialNumber] = int32(len(f.drives))
	f.drives = append(f.drives, d)
	f.length += d.Rows()
}

// FilterVendor returns a frame holding only the given vendor's drives.
// Columns are shared with f, not copied; the result is a read-only
// view. An empty vendor returns f itself.
func (f *Frame) FilterVendor(vendor string) *Frame {
	if vendor == "" {
		return f
	}
	out := f.view()
	for i := range f.drives {
		if f.drives[i].Vendor == vendor {
			out.addViewDrive(f.drives[i])
		}
	}
	return out
}

// Until returns the fleet's knowledge as of day: a read-only view of
// the rows observed on or before day. Drive order is kept, drives with
// no such row are left out, and columns are shared with f, not copied.
func (f *Frame) Until(day int) *Frame {
	out := f.view()
	for _, d := range f.drives {
		days := f.day[d.Start:d.End]
		cut := sort.Search(len(days), func(i int) bool { return int(days[i]) > day })
		if cut == 0 {
			continue
		}
		d.End = d.Start + int32(cut)
		out.addViewDrive(d)
	}
	return out
}

// Vendors returns the distinct vendor names present, in first-seen
// drive order.
func (f *Frame) Vendors() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range f.drives {
		if v := f.drives[i].Vendor; !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// DriveSeries is one drive's telemetry in record form, as Frame.Series
// and Frame.Each hand it out.
type DriveSeries struct {
	SerialNumber string
	Vendor       string
	Model        string
	Records      []Record // ascending days, one per day at most
}

// Series returns drive sn's rows as records, if the drive is present:
// the record form day-batch feeds and per-record consumers take. The
// records are read-only. SMART values are copied into each Record, but
// its WCounts and BCounts alias the frame's rows (capped, so an append
// cannot spill into the next row); copy a record with Record.Clone
// before changing it.
func (f *Frame) Series(sn string) (*DriveSeries, bool) {
	i, ok := f.bySN[sn]
	if !ok {
		return nil, false
	}
	return f.series(int(i)), true
}

// Each calls fn with every drive's series, in registration order. The
// records are read-only, as for Series.
func (f *Frame) Each(fn func(*DriveSeries)) {
	for i := range f.drives {
		fn(f.series(i))
	}
}

func (f *Frame) series(i int) *DriveSeries {
	d := &f.drives[i]
	s := &DriveSeries{SerialNumber: d.SerialNumber, Vendor: d.Vendor, Model: d.Model,
		Records: make([]Record, d.Rows())}
	for k := range s.Records {
		row := int(d.Start) + k
		r := &s.Records[k]
		r.SerialNumber, r.Vendor, r.Model = d.SerialNumber, d.Vendor, d.Model
		r.Day = int(f.day[row])
		r.Firmware = f.fwTab[f.fw[row]]
		r.WCounts = f.WRow(row)
		r.BCounts = f.BRow(row)
		r.Interpolated = f.interp[row]
		copy(r.Smart[:], f.SmartRow(row))
	}
	return s
}

// FrameFromDataset returns f unchanged. It keeps the benchmark harness
// under e2ebench/, its only caller, compiling across the removal of the
// record-form dataset; delete it when that harness moves to the frame
// API.
func FrameFromDataset(f *Frame) (*Frame, error) { return f, nil }

// ErrRowOrder reports telemetry that is not grouped by drive in
// ascending day order — the streaming FrameBuilder's one requirement.
// ReadCSVFrame falls back to buffering and sorting such input.
var ErrRowOrder = errors.New("dataset: rows not grouped by drive in ascending day order")

// FrameBuilder assembles a frame from a stream of rows — the
// collection-agent and CSV ingest path. Rows must arrive grouped by
// drive with non-decreasing days (a repeated day replaces the previous
// row); anything else fails with ErrRowOrder.
type FrameBuilder struct {
	f   *Frame
	cur int // index of the open drive, -1 when none
}

// NewFrameBuilder returns an empty streaming builder.
func NewFrameBuilder() *FrameBuilder {
	return &FrameBuilder{f: NewFrameArena(0), cur: -1}
}

// AppendRow adds one observation without materialising a Record. The
// smart vector is required; nil w/b count vectors mean all-zero counts.
// Values are copied into the frame's columns.
func (b *FrameBuilder) AppendRow(sn, vendor, model string, day int, fw firmware.Version,
	smart *smartattr.Values, w winevent.Counts, bc bsod.Counts, interp bool) error {
	if sn == "" {
		return errors.New("dataset: record has empty serial number")
	}
	if day < 0 {
		return fmt.Errorf("dataset: record %s has negative day %d", sn, day)
	}
	if w != nil && len(w) != wWidth {
		return fmt.Errorf("dataset: record %s has %d W counters, want %d", sn, len(w), wWidth)
	}
	if bc != nil && len(bc) != bWidth {
		return fmt.Errorf("dataset: record %s has %d B counters, want %d", sn, len(bc), bWidth)
	}
	if err := validateValues(sn, smart[:], w, bc); err != nil {
		return err
	}
	f := b.f
	var row int
	if b.cur >= 0 && f.drives[b.cur].SerialNumber == sn {
		d := &f.drives[b.cur]
		if err := checkIdentity(d, vendor, model); err != nil {
			return err
		}
		last := int(f.day[d.End-1])
		switch {
		case day > last:
			row = f.growRow()
			d.End++
		case day == last:
			row = int(d.End) - 1 // same-day re-observation supersedes
		default:
			return fmt.Errorf("%w: drive %s day %d after day %d", ErrRowOrder, sn, day, last)
		}
	} else {
		if _, seen := f.bySN[sn]; seen {
			return fmt.Errorf("%w: drive %s reappears after another drive", ErrRowOrder, sn)
		}
		row = f.growRow()
		f.bySN[sn] = int32(len(f.drives))
		f.drives = append(f.drives, FrameDrive{
			SerialNumber: sn, Vendor: vendor, Model: model,
			Start: int32(row), End: int32(row) + 1,
		})
		b.cur = len(f.drives) - 1
	}
	f.setRow(row, day, fw, smart, w, bc, interp)
	return nil
}

// checkIdentity rejects a row whose vendor or model differs from its
// drive's.
func checkIdentity(d *FrameDrive, vendor, model string) error {
	if d.Vendor != vendor || d.Model != model {
		return fmt.Errorf("dataset: drive %s changes identity: have %s/%s, got %s/%s",
			d.SerialNumber, d.Vendor, d.Model, vendor, model)
	}
	return nil
}

// growRow extends every column by one row and returns its index.
func (f *Frame) growRow() int {
	f.day = append(f.day, 0)
	f.interp = append(f.interp, false)
	f.fw = append(f.fw, 0)
	f.smart = append(f.smart, make([]float64, smartWidth)...)
	f.w = append(f.w, make([]float64, wWidth)...)
	f.b = append(f.b, make([]float64, bWidth)...)
	return len(f.day) - 1
}

// setRow writes one observation into row; nil w/b mean all-zero
// counts. Serial-only: it interns the firmware version.
func (f *Frame) setRow(row, day int, fw firmware.Version, smart *smartattr.Values, w winevent.Counts, bc bsod.Counts, interp bool) {
	f.day[row] = int32(day)
	f.interp[row] = interp
	f.SetFirmware(row, fw)
	copy(f.SmartRow(row), smart[:])
	wr, br := f.WRow(row), f.BRow(row)
	if w != nil {
		copy(wr, w)
	} else {
		clear(wr)
	}
	if bc != nil {
		copy(br, bc)
	} else {
		clear(br)
	}
}

// Append adds a record (validated) to the stream.
func (b *FrameBuilder) Append(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	return b.AppendRow(r.SerialNumber, r.Vendor, r.Model, r.Day, r.Firmware,
		&r.Smart, r.WCounts, r.BCounts, r.Interpolated)
}

// Len returns the number of rows appended so far.
func (b *FrameBuilder) Len() int { return len(b.f.day) }

// Finish seals and returns the frame. The builder must not be used
// afterwards.
func (b *FrameBuilder) Finish() *Frame {
	f := b.f
	b.f = nil
	b.cur = -1
	f.length = len(f.day)
	return f
}
