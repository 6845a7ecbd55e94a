package experiments

import (
	"fmt"

	"repro/internal/bsod"
	"repro/internal/features"
	"repro/internal/smartattr"
	"repro/internal/ticket"
	"repro/internal/winevent"
)

// TableIResult reproduces Table I: the RaSRF failure taxonomy with the
// paper's published shares next to the shares observed in this run's
// ticket stream.
type TableIResult struct {
	Rows []TableIRow
	// DriveLevelShare and SystemLevelShare are the observed level
	// totals (paper: 31.62% / 68.38%).
	DriveLevelShare  float64
	SystemLevelShare float64
	Tickets          int
}

// TableIRow is one cause row.
type TableIRow struct {
	Level    ticket.Level
	Category ticket.Category
	Cause    string
	// PaperShare is Table I's published percentage (as a fraction).
	PaperShare float64
	// ObservedShare is this run's fraction of tickets.
	ObservedShare float64
	Count         int
}

// TableI tallies the simulated ticket stream against the RaSRF
// taxonomy.
func (c *Context) TableI() (*TableIResult, error) {
	counts := c.Fleet.Tickets.CountByCause()
	total := c.Fleet.Tickets.Len()
	if total == 0 {
		return nil, fmt.Errorf("experiments: no tickets in fleet")
	}
	res := &TableIResult{Tickets: total}
	for i, cause := range ticket.AllCauses() {
		share := float64(counts[i]) / float64(total)
		res.Rows = append(res.Rows, TableIRow{
			Level:         cause.Level,
			Category:      cause.Category,
			Cause:         cause.Name,
			PaperShare:    cause.Share,
			ObservedShare: share,
			Count:         counts[i],
		})
		switch cause.Level {
		case ticket.DriveLevel:
			res.DriveLevelShare += share
		case ticket.SystemLevel:
			res.SystemLevelShare += share
		}
	}
	return res, nil
}

// String renders the table.
func (r *TableIResult) String() string {
	t := newTable("Table I: RaSRF — Replaced as SSD_Related Failures",
		"Level", "Category", "Cause", "Paper", "Observed", "N")
	for _, row := range r.Rows {
		t.addRow(row.Level.String(), row.Category.String(), row.Cause,
			pct(row.PaperShare), pct(row.ObservedShare), fmt.Sprint(row.Count))
	}
	t.addRow("", "", "Drive level total", "31.62%", pct(r.DriveLevelShare), "")
	t.addRow("", "", "System level total", "68.38%", pct(r.SystemLevelShare), "")
	return t.String()
}

// TableIIResult reproduces Table II: the SMART attribute catalogue.
type TableIIResult struct {
	Attributes []smartattr.Info
}

// TableII returns the catalogue.
func (c *Context) TableII() (*TableIIResult, error) {
	return &TableIIResult{Attributes: smartattr.All()}, nil
}

// String renders the catalogue.
func (r *TableIIResult) String() string {
	t := newTable("Table II: SMART attributes", "ID", "Attribute", "Kind", "Unit")
	kinds := map[smartattr.Kind]string{
		smartattr.Counter:  "counter",
		smartattr.Gauge:    "gauge",
		smartattr.Constant: "constant",
	}
	for _, info := range r.Attributes {
		t.addRow(info.ID.Label(), info.Name, kinds[info.Kind], info.Unit)
	}
	return t.String()
}

// TableVResult reproduces Table V: the feature-group definitions with
// realised feature counts.
type TableVResult struct {
	Rows []TableVRow
}

// TableVRow is one feature-group row.
type TableVRow struct {
	Group    features.Group
	SMART    int
	Firmware int
	WEvents  int
	BSOD     int
	Width    int
}

// TableV derives the group widths from the catalogues.
func (c *Context) TableV() (*TableVResult, error) {
	res := &TableVResult{}
	for _, g := range features.AllGroups() {
		row := TableVRow{Group: g}
		if g.SMART {
			row.SMART = smartattr.Count
		}
		if g.Firmware {
			row.Firmware = 1
		}
		if g.WEvents {
			row.WEvents = winevent.SelectedCount()
		}
		if g.BSOD {
			row.BSOD = bsod.Count() + 1 // +1: derived B_total
		}
		row.Width = row.SMART + row.Firmware + row.WEvents + row.BSOD
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the table.
func (r *TableVResult) String() string {
	t := newTable("Table V: Feature Groups",
		"Group", "SMART", "Firmware", "WindowsEvent", "BlueScreenofDeath", "Width")
	na := func(n int) string {
		if n == 0 {
			return "NaN"
		}
		return fmt.Sprint(n)
	}
	for _, row := range r.Rows {
		t.addRow(row.Group.String(), na(row.SMART), na(row.Firmware),
			na(row.WEvents), na(row.BSOD), fmt.Sprint(row.Width))
	}
	return t.String()
}

// TableVIResult reproduces Table VI: the per-vendor dataset summary.
type TableVIResult struct {
	Rows []TableVIRow
}

// TableVIRow is one vendor row.
type TableVIRow struct {
	Vendor string
	// Population is the nominal fleet size; PaperRR the published
	// replacement rate; Failures the materialised faulty drives in this
	// run; SampledHealthy the healthy subsample.
	Population     int
	PaperFailures  int
	PaperRR        float64
	Failures       int
	SampledHealthy int
	Records        int
}

// TableVI summarises the simulated fleet.
func (c *Context) TableVI() (*TableVIResult, error) {
	res := &TableVIResult{}
	recordsByVendor := make(map[string]int)
	for i := 0; i < c.Fleet.Data.Drives(); i++ {
		d := c.Fleet.Data.Drive(i)
		recordsByVendor[d.Vendor] += d.Rows()
	}
	for _, st := range c.Fleet.Stats {
		res.Rows = append(res.Rows, TableVIRow{
			Vendor:         st.Name,
			Population:     st.Population,
			PaperFailures:  st.NominalFailures,
			PaperRR:        st.ReplacementRate(),
			Failures:       st.Failures,
			SampledHealthy: st.SampledHealthy,
			Records:        recordsByVendor[st.Name],
		})
	}
	return res, nil
}

// String renders the table.
func (r *TableVIResult) String() string {
	t := newTable("Table VI: Dataset (M.2 2280, NVMe, 3D TLC)",
		"Vendor", "Population", "Paper failures", "Paper RR", "Sim failures", "Sim healthy", "Records")
	for _, row := range r.Rows {
		t.addRow(row.Vendor, fmt.Sprint(row.Population), fmt.Sprint(row.PaperFailures),
			fmt.Sprintf("%.4f", row.PaperRR), fmt.Sprint(row.Failures),
			fmt.Sprint(row.SampledHealthy), fmt.Sprint(row.Records))
	}
	return t.String()
}
