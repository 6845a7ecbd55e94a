package features

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/labeling"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// randomRawFleet synthesises a raw (daily-count) dataset with the
// discontinuity structure the rolling state must reproduce: mostly
// one-day steps, fillable 2-3 day gaps, unfillable holes, occasional
// drop-sized gaps, and mid-series firmware upgrades.
func randomRawFleet(t *testing.T, seed int64, drives int) *dataset.Frame {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	vendors := []string{"I", "II", "III", "IV"}
	b := dataset.NewFrameBuilder()
	for i := 0; i < drives; i++ {
		sn := fmt.Sprintf("S%d-%03d", seed, i)
		vendor := vendors[r.Intn(len(vendors))]
		fw := firmware.Version(fmt.Sprintf("%s-1.%d", vendor, r.Intn(3)))
		day := r.Intn(3)
		n := 15 + r.Intn(25)
		for k := 0; k < n; k++ {
			rec := dataset.Record{
				SerialNumber: sn,
				Vendor:       vendor,
				Model:        "M0",
				Day:          day,
				Firmware:     fw,
				WCounts:      winevent.NewCounts(),
				BCounts:      bsod.NewCounts(),
			}
			for j := range rec.Smart {
				rec.Smart[j] = float64(r.Intn(1000)) + r.Float64()
			}
			for j := range rec.WCounts {
				if r.Intn(3) == 0 {
					rec.WCounts[j] = float64(r.Intn(5))
				}
			}
			for j := range rec.BCounts {
				if r.Intn(6) == 0 {
					rec.BCounts[j] = float64(r.Intn(3))
				}
			}
			if err := b.Append(rec); err != nil {
				t.Fatal(err)
			}
			if r.Intn(10) == 0 {
				fw = firmware.Version(fmt.Sprintf("%s-2.%d", vendor, r.Intn(3)))
			}
			switch p := r.Float64(); {
			case p < 0.70:
				day++
			case p < 0.85:
				day += 2 + r.Intn(2) // fillable
			case p < 0.96:
				day += 4 + r.Intn(6) // hole, survives
			default:
				day += 10 + r.Intn(3) // drop-sized
			}
		}
	}
	return b.Finish()
}

type refRow struct {
	day    int
	interp bool
	x      []float64
}

// offlineRows runs the full offline preprocessing — the fused
// clean+cumulate pipeline, then per-record extraction — and returns
// each surviving drive's feature rows.
func offlineRows(t *testing.T, raw *dataset.Frame, policy dataset.GapPolicy, e *Extractor, workers int) map[string][]refRow {
	t.Helper()
	cleaned := preparedRecords(t, raw, dataset.PipelineOptions{Policy: policy, Workers: workers})
	out := make(map[string][]refRow)
	cleaned.Each(func(s *dataset.DriveSeries) {
		rows := make([]refRow, 0, len(s.Records))
		for i := range s.Records {
			rec := &s.Records[i]
			rows = append(rows, refRow{day: rec.Day, interp: rec.Interpolated, x: e.Extract(rec)})
		}
		out[s.SerialNumber] = rows
	})
	return out
}

// preparedRecords runs PreparePipeline over raw.
func preparedRecords(t *testing.T, raw *dataset.Frame, opts dataset.PipelineOptions) *dataset.Frame {
	t.Helper()
	out, _, err := dataset.PreparePipeline(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRollingAdvanceMatchesOfflinePipeline is the incremental-vs-
// offline equivalence property: over varied seeds (and offline worker
// counts), Advance over each drive's raw records emits exactly the
// feature rows the PreparePipeline→Extract pipeline produces, bit-identical via math.Float64bits, and agrees on which
// drives the gap policy drops.
func TestRollingAdvanceMatchesOfflinePipeline(t *testing.T) {
	policy := dataset.DefaultGapPolicy()
	for seed := int64(1); seed <= 6; seed++ {
		raw := randomRawFleet(t, seed, 12)
		ext, err := NewExtractor(GroupSFWB, nil)
		if err != nil {
			t.Fatal(err)
		}
		// One extractor for both paths, primed on the raw dataset:
		// after priming, extraction is read-only, and the first-seen
		// firmware codes cannot depend on which path runs first.
		ext.PrimeFrame(raw)
		workers := int(seed%2) + 1 // 1 or 2; offline output is pinned anyway
		offline := offlineRows(t, raw, policy, ext, workers)

		checked, drive := 0, -1
		raw.Each(func(s *dataset.DriveSeries) {
			drive++
			st := NewRollingState()
			x := make([]float64, 0, ext.Width()*4)
			var meta []EmittedRow
			var got []refRow
			for i := range s.Records {
				var err error
				x, meta, err = st.Advance(ext, policy, &s.Records[i], x[:0], meta[:0])
				if err != nil {
					t.Fatalf("seed %d drive %s: %v", seed, s.SerialNumber, err)
				}
				for k := range meta {
					row := append([]float64(nil), x[k*ext.Width():(k+1)*ext.Width()]...)
					got = append(got, refRow{day: int(meta[k].Day), interp: meta[k].Interpolated, x: row})
				}
			}
			want, survived := offline[s.SerialNumber]
			if st.Dropped() != !survived {
				t.Fatalf("seed %d drive %s: online dropped=%v, offline survived=%v (max gap %d)",
					seed, s.SerialNumber, st.Dropped(), survived, raw.MaxGap(drive))
			}
			if !survived {
				return // offline has no rows to compare against
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d drive %s: %d online rows, %d offline", seed, s.SerialNumber, len(got), len(want))
			}
			for i := range want {
				if got[i].day != want[i].day || got[i].interp != want[i].interp {
					t.Fatalf("seed %d drive %s row %d: got day %d interp %v, want day %d interp %v",
						seed, s.SerialNumber, i, got[i].day, got[i].interp, want[i].day, want[i].interp)
				}
				if !bitsEqual(got[i].x, want[i].x) {
					t.Fatalf("seed %d drive %s row %d (day %d): feature bits diverge", seed, s.SerialNumber, i, got[i].day)
				}
			}
			checked++
		})
		if checked == 0 {
			t.Fatalf("seed %d: every drive dropped; generator too aggressive", seed)
		}
	}
}

// TestRollingAdvanceRowMatchesBuildSampleSetFrame pins the frame-native
// AdvanceRow against the columnar offline build: the same drive-days,
// in the same order, with bit-identical vectors.
func TestRollingAdvanceRowMatchesBuildSampleSetFrame(t *testing.T) {
	policy := dataset.DefaultGapPolicy()
	raw := randomRawFleet(t, 7, 10)
	rawFrame := raw
	ext, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	ext.PrimeFrame(rawFrame)

	// Offline fused path: clean+cumulate, then the columnar sample
	// build over all rows (empty labels keep every row as a negative).
	cleanedFrame, _, err := dataset.PreparePipeline(rawFrame, dataset.PipelineOptions{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultBuildOptions()
	set, err := BuildSampleSetFrame(cleanedFrame, labeling.Labels{}, ext, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Online: AdvanceRow over the raw frame, drive-major like the
	// offline build, skipping drives the policy drops.
	var onlineRows [][]float64
	var onlineSN []string
	var onlineDay []int32
	x := make([]float64, 0, ext.Width()*4)
	var meta []EmittedRow
	for di := 0; di < rawFrame.Drives(); di++ {
		d := rawFrame.Drive(di)
		st := NewRollingState()
		var driveRows [][]float64
		var driveDays []int32
		for r := int(d.Start); r < int(d.End); r++ {
			var err error
			x, meta, err = st.AdvanceRow(ext, policy, d.SerialNumber, d.Vendor, int(rawFrame.Day(r)),
				rawFrame.SmartRow(r), rawFrame.FirmwareAt(r), rawFrame.WRow(r), rawFrame.BRow(r), x[:0], meta[:0])
			if err != nil {
				t.Fatal(err)
			}
			for k := range meta {
				driveRows = append(driveRows, append([]float64(nil), x[k*ext.Width():(k+1)*ext.Width()]...))
				driveDays = append(driveDays, meta[k].Day)
			}
		}
		if st.Dropped() {
			continue
		}
		for i := range driveRows {
			onlineRows = append(onlineRows, driveRows[i])
			onlineSN = append(onlineSN, d.SerialNumber)
			onlineDay = append(onlineDay, driveDays[i])
		}
	}

	if set.Len() != len(onlineRows) {
		t.Fatalf("offline %d rows, online %d", set.Len(), len(onlineRows))
	}
	for i := 0; i < set.Len(); i++ {
		if set.SN(i) != onlineSN[i] || set.Day(i) != int(onlineDay[i]) {
			t.Fatalf("row %d: offline (%s, %d), online (%s, %d)", i, set.SN(i), set.Day(i), onlineSN[i], onlineDay[i])
		}
		if !bitsEqual(set.Row(i), onlineRows[i]) {
			t.Fatalf("row %d (%s day %d): feature bits diverge", i, set.SN(i), set.Day(i))
		}
	}
}

// TestRollingSnapshotRoundTrip: persisting mid-stream (including right
// before a mean-filled gap, which needs the previous raw observation)
// and restoring must continue bit-identically to the uninterrupted
// state, through JSON like the scorer's state file.
func TestRollingSnapshotRoundTrip(t *testing.T) {
	policy := dataset.DefaultGapPolicy()
	raw := randomRawFleet(t, 13, 8)
	ext, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	ext.PrimeFrame(raw)
	raw.Each(func(s *dataset.DriveSeries) {
		for _, cut := range []int{1, len(s.Records) / 2} {
			if cut >= len(s.Records) {
				continue
			}
			orig := NewRollingState()
			x := make([]float64, 0, ext.Width()*4)
			var meta []EmittedRow
			for i := 0; i < cut; i++ {
				x, meta, err = orig.Advance(ext, policy, &s.Records[i], x[:0], meta[:0])
				if err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(orig.Snapshot()); err != nil {
				t.Fatal(err)
			}
			var snap RollingSnapshot
			if err := json.NewDecoder(&buf).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			restored, err := RollingFromSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			x2 := make([]float64, 0, ext.Width()*4)
			var meta2 []EmittedRow
			for i := cut; i < len(s.Records); i++ {
				x, meta, err = orig.Advance(ext, policy, &s.Records[i], x[:0], meta[:0])
				if err != nil {
					t.Fatal(err)
				}
				x2, meta2, err = restored.Advance(ext, policy, &s.Records[i], x2[:0], meta2[:0])
				if err != nil {
					t.Fatal(err)
				}
				if len(meta) != len(meta2) {
					t.Fatalf("drive %s cut %d record %d: row counts diverge after restore", s.SerialNumber, cut, i)
				}
				if !bitsEqual(x, x2) {
					t.Fatalf("drive %s cut %d record %d: bits diverge after restore", s.SerialNumber, cut, i)
				}
			}
			if orig.Dropped() != restored.Dropped() || orig.Rows() != restored.Rows() {
				t.Fatalf("drive %s cut %d: state diverges after restore", s.SerialNumber, cut)
			}
			ow, rw := orig.Window(), restored.Window()
			if ow != rw {
				t.Fatalf("drive %s cut %d: window stats diverge: %+v vs %+v", s.SerialNumber, cut, ow, rw)
			}
		}
	})
}

// TestRollingWindowStats checks the ring-buffer aggregates directly.
func TestRollingWindowStats(t *testing.T) {
	ext, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := NewRollingState()
	x := make([]float64, 0, ext.Width())
	var meta []EmittedRow
	days := RollingWindow + 3
	for day := 0; day < days; day++ {
		rec := dataset.Record{
			SerialNumber: "W-1", Vendor: "I", Model: "M0", Day: day,
			Firmware: "fw", WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts(),
		}
		rec.WCounts[0] = float64(day) // daily W total = day
		rec.BCounts[1] = 2            // daily B total = 2
		rec.Smart.Set(smartattr.MediaErrors, float64(10*day))
		x, meta, err = st.Advance(ext, dataset.DefaultGapPolicy(), &rec, x[:0], meta[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	ws := st.Window()
	if ws.Days != RollingWindow {
		t.Fatalf("window holds %d days, want %d", ws.Days, RollingWindow)
	}
	first := days - RollingWindow
	if ws.FirstDay != first || ws.LastDay != days-1 {
		t.Fatalf("window spans [%d, %d], want [%d, %d]", ws.FirstDay, ws.LastDay, first, days-1)
	}
	wantW := 0.0
	for d := first; d < days; d++ {
		wantW += float64(d)
	}
	wantW /= RollingWindow
	if ws.WPerDay != wantW || ws.BPerDay != 2 {
		t.Fatalf("rates W=%g B=%g, want W=%g B=2", ws.WPerDay, ws.BPerDay, wantW)
	}
	if want := float64(10 * (days - 1 - first)); ws.MediaErrGrowth != want {
		t.Fatalf("media growth %g, want %g", ws.MediaErrGrowth, want)
	}
}

// TestRollingAdvanceRejectsOutOfOrder pins the ordering contract.
func TestRollingAdvanceRejectsOutOfOrder(t *testing.T) {
	ext, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := NewRollingState()
	rec := dataset.Record{
		SerialNumber: "O-1", Vendor: "I", Model: "M0", Day: 5,
		Firmware: "fw", WCounts: winevent.NewCounts(), BCounts: bsod.NewCounts(),
	}
	x := make([]float64, 0, ext.Width())
	var meta []EmittedRow
	if x, meta, err = st.Advance(ext, dataset.DefaultGapPolicy(), &rec, x, meta); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Advance(ext, dataset.DefaultGapPolicy(), &rec, x[:0], meta[:0]); err == nil {
		t.Fatal("same-day record accepted")
	}
	rec.Day = 4
	if _, _, err := st.Advance(ext, dataset.DefaultGapPolicy(), &rec, x[:0], meta[:0]); err == nil {
		t.Fatal("out-of-order record accepted")
	}
}
