package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bsod"
	"repro/internal/dataset"
	"repro/internal/winevent"
)

// Fig2Result reproduces Fig. 2: the distribution of failures over
// power-on-hour age — the bathtub curve of Observation #1.
type Fig2Result struct {
	// BucketHours is the histogram bucket width.
	BucketHours float64
	// Counts[i] is the number of failures with age in
	// [i*BucketHours, (i+1)*BucketHours).
	Counts []int
	Total  int
}

// Fig2 histograms the ground-truth failure ages.
func (c *Context) Fig2() (*Fig2Result, error) {
	const buckets = 15
	res := &Fig2Result{BucketHours: 30000.0 / buckets, Counts: make([]int, buckets)}
	for _, truth := range c.Fleet.Truth {
		if !truth.Faulty || truth.FailPowerOnHours <= 0 {
			continue
		}
		b := int(truth.FailPowerOnHours / res.BucketHours)
		if b >= buckets {
			b = buckets - 1
		}
		res.Counts[b]++
		res.Total++
	}
	if res.Total == 0 {
		return nil, fmt.Errorf("experiments: no failures with recorded age")
	}
	return res, nil
}

// String renders the histogram with a text sparkline.
func (r *Fig2Result) String() string {
	t := newTable("Fig 2: Failure distribution over power-on hours (bathtub)",
		"Hours", "Failures", "")
	max := 1
	for _, n := range r.Counts {
		if n > max {
			max = n
		}
	}
	for i, n := range r.Counts {
		bar := strings.Repeat("#", n*40/max)
		t.addRow(fmt.Sprintf("%6.0f-%6.0f", float64(i)*r.BucketHours, float64(i+1)*r.BucketHours),
			fmt.Sprint(n), bar)
	}
	return t.String()
}

// InfantShare returns the fraction of failures in the first two
// buckets — the infant-mortality spike of the bathtub.
func (r *Fig2Result) InfantShare() float64 {
	if r.Total == 0 || len(r.Counts) < 2 {
		return 0
	}
	return float64(r.Counts[0]+r.Counts[1]) / float64(r.Total)
}

// WearOutShare returns the fraction of failures in the last third of
// the age range — the wear-out tail.
func (r *Fig2Result) WearOutShare() float64 {
	if r.Total == 0 {
		return 0
	}
	n := 0
	for i := len(r.Counts) * 2 / 3; i < len(r.Counts); i++ {
		n += r.Counts[i]
	}
	return float64(n) / float64(r.Total)
}

// Fig3Result reproduces Fig. 3: the failure rate of each firmware
// version per vendor (Observation #2: earlier versions fail more).
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3Row is one (vendor, firmware release) pair.
type Fig3Row struct {
	Vendor string
	// Label is the paper-style release label, e.g. "I_F_2".
	Label string
	Seq   int
	// FailureRate is failures on the release divided by the nominal
	// population running it.
	FailureRate float64
	Failures    int
}

// Fig3 computes per-release replacement rates.
func (c *Context) Fig3() (*Fig3Result, error) {
	res := &Fig3Result{}
	for _, st := range c.Fleet.Stats {
		reg := c.Registries[st.Name]
		if reg == nil {
			return nil, fmt.Errorf("experiments: no firmware registry for vendor %s", st.Name)
		}
		// Scale materialised failures back to the nominal failure count
		// so rates are comparable with Table VI.
		scale := float64(st.NominalFailures) / float64(max(st.Failures, 1))
		seqs := make([]int, 0, len(st.FailuresByFirmwareSeq))
		for seq := range st.PopulationByFirmwareSeq {
			seqs = append(seqs, seq)
		}
		sort.Ints(seqs)
		for _, seq := range seqs {
			pop := st.PopulationByFirmwareSeq[seq]
			fails := st.FailuresByFirmwareSeq[seq]
			rate := 0.0
			if pop > 0 {
				rate = float64(fails) * scale / pop
			}
			res.Rows = append(res.Rows, Fig3Row{
				Vendor:      st.Name,
				Label:       reg.Label(seq),
				Seq:         seq,
				FailureRate: rate,
				Failures:    fails,
			})
		}
	}
	return res, nil
}

// String renders the rates.
func (r *Fig3Result) String() string {
	t := newTable("Fig 3: Failure rate by firmware version (earlier → higher)",
		"Vendor", "Release", "Failures", "Failure rate")
	for _, row := range r.Rows {
		t.addRow(row.Vendor, row.Label, fmt.Sprint(row.Failures), fmt.Sprintf("%.5f", row.FailureRate))
	}
	return t.String()
}

// MonotoneViolations counts, per vendor, adjacent release pairs where
// the later release has a *higher* failure rate (the paper observes
// zero: "the earlier the firmware version, the higher the failure
// rate").
func (r *Fig3Result) MonotoneViolations() int {
	violations := 0
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Vendor == r.Rows[i-1].Vendor && r.Rows[i].FailureRate > r.Rows[i-1].FailureRate {
			violations++
		}
	}
	return violations
}

// CumSeries is one drive's cumulative event trajectory for the
// Figs. 4/5 comparison plots.
type CumSeries struct {
	SerialNumber string
	Faulty       bool
	// Values are the cumulative counts at each observation, aligned so
	// the last point is the failure (faulty) or the window end
	// (healthy); only the final Tail points are kept.
	Values []float64
}

// Fig45Result reproduces Figs. 4 and 5: cumulative W_161 (or B_50)
// trajectories of sample faulty drives (F1–F4) versus healthy drives
// (N1–N4) before failure/window end.
type Fig45Result struct {
	Metric  string
	Faulty  []CumSeries
	Healthy []CumSeries
}

// Fig4 extracts cumulative W_161 trajectories.
func (c *Context) Fig4() (*Fig45Result, error) {
	return c.cumulativeStudy("W_161", func(f *dataset.Frame, row int) float64 {
		return winevent.Counts(f.WRow(row)).Get(winevent.FileSystemIOError)
	})
}

// Fig5 extracts cumulative B_50 trajectories.
func (c *Context) Fig5() (*Fig45Result, error) {
	return c.cumulativeStudy("B_50", func(f *dataset.Frame, row int) float64 {
		return bsod.Counts(f.BRow(row)).Get(bsod.PageFaultInNonpagedArea)
	})
}

func (c *Context) cumulativeStudy(metric string, get func(f *dataset.Frame, row int) float64) (*Fig45Result, error) {
	const tail = 15
	const perClass = 4
	res := &Fig45Result{Metric: metric}

	// Deterministic pick: first qualifying drives in S/N order.
	f := c.Fleet.Data
	sns := make([]string, f.Drives())
	for i := range sns {
		sns[i] = f.Drive(i).SerialNumber
	}
	sort.Strings(sns)
	for _, sn := range sns {
		truth := c.Fleet.Truth[sn]
		if truth.Vendor != primaryVendor {
			continue
		}
		i, _ := f.DriveIndex(sn)
		d := f.Drive(i)
		if d.Rows() < tail {
			continue
		}
		var cum float64
		values := make([]float64, 0, d.Rows())
		for row := int(d.Start); row < int(d.End); row++ {
			cum += get(f, row)
			values = append(values, cum)
		}
		cs := CumSeries{SerialNumber: sn, Faulty: truth.Faulty, Values: values[len(values)-tail:]}
		if truth.Faulty && len(res.Faulty) < perClass && cum > 0 {
			res.Faulty = append(res.Faulty, cs)
		}
		if !truth.Faulty && len(res.Healthy) < perClass {
			res.Healthy = append(res.Healthy, cs)
		}
		if len(res.Faulty) == perClass && len(res.Healthy) == perClass {
			break
		}
	}
	if len(res.Faulty) == 0 {
		return nil, fmt.Errorf("experiments: no faulty drives with %s activity", metric)
	}
	return res, nil
}

// String renders both trajectory families.
func (r *Fig45Result) String() string {
	title := "Fig 4: Cumulative " + r.Metric + " before failure (faulty F* vs healthy N*)"
	if r.Metric == "B_50" {
		title = "Fig 5: Cumulative " + r.Metric + " before failure (faulty F* vs healthy N*)"
	}
	t := newTable(title, "Drive", "Class", "Trajectory (last points)")
	render := func(prefix string, list []CumSeries, class string) {
		for i, cs := range list {
			var parts []string
			for _, v := range cs.Values {
				parts = append(parts, fmt.Sprintf("%.1f", v))
			}
			t.addRow(fmt.Sprintf("%s%d", prefix, i+1), class, strings.Join(parts, " "))
		}
	}
	render("F", r.Faulty, "faulty")
	render("N", r.Healthy, "healthy")
	return t.String()
}

// FinalGapRatio returns mean(final faulty cumulative) /
// max(mean(final healthy cumulative), 1): how much more W/B activity
// faulty drives accumulate (the separation the figures show).
func (r *Fig45Result) FinalGapRatio() float64 {
	mean := func(list []CumSeries) float64 {
		if len(list) == 0 {
			return 0
		}
		var s float64
		for _, cs := range list {
			s += cs.Values[len(cs.Values)-1]
		}
		return s / float64(len(list))
	}
	h := mean(r.Healthy)
	if h < 1 {
		h = 1
	}
	return mean(r.Faulty) / h
}

// Fig6Result reproduces Fig. 6: the discontinuity structure of CSS
// telemetry — the histogram of intervals between consecutive
// observations.
type Fig6Result struct {
	// GapHistogram[g] counts consecutive-record intervals of g days
	// (index capped at MaxGap).
	GapHistogram []int
	MaxGap       int
	// DropCandidates is the number of drives the ≥ 10-day rule removes.
	DropCandidates int
	Drives         int
}

// Fig6 analyses the raw (pre-cleaning) fleet telemetry.
func (c *Context) Fig6() (*Fig6Result, error) {
	const maxGap = 15
	f := c.Fleet.Data
	res := &Fig6Result{
		GapHistogram: dataset.GapHistogram(f, maxGap),
		MaxGap:       maxGap,
		Drives:       f.Drives(),
	}
	policy := dataset.DefaultGapPolicy()
	for i := 0; i < f.Drives(); i++ {
		if f.MaxGap(i) >= policy.DropGap {
			res.DropCandidates++
		}
	}
	return res, nil
}

// String renders the gap histogram.
func (r *Fig6Result) String() string {
	t := newTable("Fig 6: Telemetry discontinuity (interval between consecutive logs)",
		"Interval (days)", "Count", "")
	max := 1
	for _, n := range r.GapHistogram[1:] {
		if n > max {
			max = n
		}
	}
	for g := 1; g < len(r.GapHistogram); g++ {
		label := fmt.Sprint(g)
		if g == r.MaxGap {
			label = fmt.Sprintf("%d+", g)
		}
		t.addRow(label, fmt.Sprint(r.GapHistogram[g]), strings.Repeat("#", r.GapHistogram[g]*40/max))
	}
	t.addRow("drives dropped by ≥10d rule", fmt.Sprintf("%d of %d", r.DropCandidates, r.Drives), "")
	return t.String()
}
