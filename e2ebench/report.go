package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/simfleet"
)

// reportStage is the report workload: every registry experiment, in
// order, on one context over the default fleet.
type reportStage struct {
	ctx *experiments.Context
}

func setupReport(sz size, fleetSeed int64, it *iteration) (stage, error) {
	cfg := simfleet.DefaultConfig()
	cfg.FailureScale = sz.reportScale
	cfg.Seed = fleetSeed
	var ctx *experiments.Context
	var err error
	it.call("simfleet.simulate", func() { ctx, err = experiments.NewContextWith(cfg) })
	if err != nil {
		return nil, err
	}
	return &reportStage{ctx: ctx}, nil
}

func (s *reportStage) counts() counts {
	n := s.ctx.Fleet.Data.Len()
	return counts{Drives: s.ctx.Fleet.Data.Drives(), Records: n, Rows: n}
}

func (s *reportStage) run(it *iteration) {
	for _, r := range experiments.Registry() {
		var (
			out  fmt.Stringer
			text string
			err  error
		)
		span := "experiments." + r.Name
		d, alloc := it.call(span, func() {
			if out, err = r.Run(s.ctx); err == nil {
				text = out.String() // rendering is part of what a report run does
			}
		})
		if key := experimentKey(r.Name); key != span {
			it.layer[key+"_s"] += d.Seconds()
			it.layer[key+"_alloc_mb"] += alloc
		}
		if it.tr != nil {
			it.layer[experimentKey(r.Name)+"_live_mb"] = liveHeapMB()
		}
		it.untimed(func() {
			got := ""
			if err == nil {
				got = digestBytes([]byte(untimedText(out, text)))
			}
			it.op(r.Name, got, err)
		})
	}
}

// untimedText is an experiment's rendered text with its timing-bearing
// cells removed: Fig. 20's per-stage times and its prediction latency
// and throughput. Every other experiment's text is fully determined by
// the fleet.
func untimedText(out fmt.Stringer, text string) string {
	f, ok := out.(*experiments.Fig20Result)
	if !ok {
		return text
	}
	c := *f
	c.Stages = append([]experiments.StageOverhead(nil), f.Stages...)
	for i := range c.Stages {
		c.Stages[i].Time = 0
	}
	c.PredictLatency, c.PredictionsPerSecond = 0, 0
	return c.String()
}
