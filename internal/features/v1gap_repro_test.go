package features

import (
	"testing"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

// Reproduction: v1 scorer state reconstructed via RollingFromSnapshot
// (cumulates only, no PrevW/PrevB/PrevSmart), then a record with a
// fillable gap under an active gap policy.
func TestV1SnapshotThenFillGap(t *testing.T) {
	nw, nb := winevent.Count(), bsod.Count()
	cw := make([]float64, nw)
	cb := make([]float64, nb)
	st, err := RollingFromSnapshot(RollingSnapshot{LastDay: 0, Observed: 1, Rows: 1, CumW: cw, CumB: cb})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExtractor(GroupSFWB, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := dataset.Record{
		SerialNumber: "SN1", Vendor: "I", Day: 3,
		Smart:    [smartattr.Count]float64{},
		WCounts:  make(winevent.Counts, nw),
		BCounts:  make(bsod.Counts, nb),
		Firmware: "fw1",
	}
	policy := dataset.GapPolicy{DropGap: 10, FillGap: 3}
	_, _, err = st.Advance(e, policy, &rec, make([]float64, 0, e.Width()), nil)
	if err == nil {
		t.Fatal("fillable gap after a v1 restore must error: the previous record needed for the mean fill is missing")
	}
	t.Log(err)
}
