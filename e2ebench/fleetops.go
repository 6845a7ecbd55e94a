package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/fleetops"
	"repro/internal/serve"
	"repro/internal/simfleet"
)

// fleetopsStage is one fleet-ops session on the drift fleet: train
// every vendor on firstDay and bootstrap its scorer from the days
// before, then, for each day to the end of the window, Step (which
// retrains on the service's 60-day cadence), Publish what was
// retrained, and sweep that day's records. The loop is closed: a day
// is sent only after the previous one returned.
type fleetopsStage struct {
	fleet    *simfleet.Result
	regs     map[string]*firmware.Registry
	vendors  []string
	seed     int64
	firstDay int
	// days[i] are the records of day firstDay+i, in fleet order.
	days [][]dataset.Record
	// history holds every record before firstDay.
	history *dataset.Frame
}

// iterationDays is the service's retraining cadence (its default).
const iterationDays = 60

func setupFleetops(sz size, fleetSeed int64, it *iteration) (stage, error) {
	cfg := simfleet.DriftConfig()
	cfg.FailureScale = sz.driftScale
	cfg.Seed = fleetSeed
	var fleet *simfleet.Result
	var err error
	it.call("simfleet.simulate", func() { fleet, err = simfleet.Simulate(cfg) })
	if err != nil {
		return nil, err
	}
	s := &fleetopsStage{
		fleet:    fleet,
		regs:     make(map[string]*firmware.Registry),
		seed:     fleetSeed,
		firstDay: sz.firstDay,
		days:     make([][]dataset.Record, cfg.Days-sz.firstDay),
	}
	for _, v := range fleet.Config.Vendors {
		s.regs[v.Name] = v.Firmware
		s.vendors = append(s.vendors, v.Name)
	}
	fleet.Data.Each(func(ds *dataset.DriveSeries) {
		for _, r := range ds.Records {
			if i := r.Day - s.firstDay; i >= 0 && i < len(s.days) {
				s.days[i] = append(s.days[i], r)
			}
		}
	})
	if s.history, err = dataset.FrameFromDataset(fleet.Data.Until(s.firstDay - 1)); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *fleetopsStage) counts() counts {
	rows := 0
	for _, d := range s.days {
		rows += len(d)
	}
	return counts{Drives: s.fleet.Data.Drives(), Records: s.fleet.Data.Len(), Rows: rows}
}

func (s *fleetopsStage) run(it *iteration) {
	tpl := core.DefaultConfig("")
	tpl.Registries = s.regs
	tpl.Seed = s.seed
	svc, err := fleetops.New(fleetops.Options{Template: tpl, IterationDays: iterationDays})
	if err != nil {
		it.op("service", "", err)
		return
	}
	sopts := serve.Options{Registries: s.regs}
	for i, recs := range s.days {
		day := s.firstDay + i
		s.step(it, svc, day)
		if i == 0 {
			for _, v := range s.vendors {
				var st serve.ReplayStats
				var err error
				it.call("serve.bootstrap", func() { st, err = svc.Bootstrap(s.history, v, sopts) })
				it.layer["serve.replay_rows"] += float64(st.Rows)
				if err == nil && st.Quarantined > 0 {
					err = fmt.Errorf("%d drives quarantined during replay", st.Quarantined)
				}
				it.op("bootstrap/"+v, newDigester().add("%d|%d|%d|%d|%d",
					st.Drives, st.Records, st.Rows, st.Dropped, st.Quarantined).sum(), err)
			}
		}
		s.sweep(it, svc, day, recs, sopts)
	}
}

// step runs one Step call and publishes every vendor it retrained. It
// fails unless exactly the vendors due on the cadence were retrained.
func (s *fleetopsStage) step(it *iteration, svc *fleetops.Service, day int) {
	var retrained []string
	var err error
	d, alloc := it.call("fleetops.step", func() { retrained, err = svc.Step(s.fleet.Data, s.fleet.Tickets, s.vendors, day) })
	if len(retrained) > 0 {
		it.layer["retrain_s"] += d.Seconds()
		it.layer["fleetops.train_alloc_mb"] += alloc
	}
	dg := newDigester().add("%v", retrained)
	for _, v := range retrained {
		var env []byte
		var perr error
		it.call("fleetops.publish", func() { env, perr = svc.Publish(v) })
		if perr != nil && err == nil {
			err = perr
		}
		it.untimed(func() { dg.add("|%s", digestBytes(env)) })
	}
	var due []string
	if (day-s.firstDay)%iterationDays == 0 {
		due = s.vendors
	}
	if err == nil && !slices.Equal(retrained, due) {
		err = fmt.Errorf("retrained %v, due %v", retrained, due)
	}
	it.op("step/"+strconv.Itoa(day), dg.sum(), err)
}

// sweep scores one day. It fails on any quarantined, degraded or
// unmodelled record, or when the day's assessments differ from the
// reference.
func (s *fleetopsStage) sweep(it *iteration, svc *fleetops.Service, day int, recs []dataset.Record, sopts serve.Options) {
	var as []serve.Assessment
	var st fleetops.SweepStats
	var err error
	d, _ := it.call("fleetops.sweep", func() { as, st, err = svc.SweepDay(recs, sopts) })
	it.sweepMS = append(it.sweepMS, float64(d.Nanoseconds())/1e6)
	for i, v := range [...]int{st.Records, st.Scored, st.Flagged, st.Alarmed, st.Dropped,
		st.Quarantined, st.Skipped, st.Degraded, st.NoModel, st.Retries} {
		it.layer["fleetops."+sweepCounters[i]] += float64(v)
	}
	if err == nil && st.Quarantined+st.Skipped+st.Degraded+st.NoModel > 0 {
		err = fmt.Errorf("%d quarantined, %d skipped, %d degraded, %d without a model",
			st.Quarantined, st.Skipped, st.Degraded, st.NoModel)
	}
	got := ""
	it.untimed(func() {
		dg := newDigester()
		for i := range as {
			a := &as[i]
			dg.add("%s|%d|%x|%t\n", a.SerialNumber, a.Day, math.Float64bits(a.Probability), a.Alarmed)
		}
		got = dg.sum()
	})
	it.op("sweep/"+strconv.Itoa(day), got, err)
}
