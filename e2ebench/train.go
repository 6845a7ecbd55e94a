package main

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/firmware"
	"repro/internal/modelio"
	"repro/internal/simfleet"
	"repro/internal/ticket"
)

// trainStage is the mfpagen → mfpatrain path: encode the simulated
// fleet to MFPAC, decode it, then prepare, train and serialise one
// model per vendor from the decoded frame.
type trainStage struct {
	frame   *dataset.Frame
	tickets *ticket.Store
	regs    map[string]*firmware.Registry
	vendors []string
	seed    int64
}

func setupTrain(sz size, fleetSeed int64, it *iteration) (stage, error) {
	cfg := simfleet.DefaultConfig()
	cfg.FailureScale = sz.trainScale
	cfg.Seed = fleetSeed
	var fleet *simfleet.FrameResult
	var err error
	it.call("simfleet.simulate", func() { fleet, err = simfleet.SimulateFrame(cfg) })
	if err != nil {
		return nil, err
	}
	s := &trainStage{
		frame:   fleet.Frame,
		tickets: fleet.Tickets,
		regs:    make(map[string]*firmware.Registry),
		seed:    fleetSeed,
	}
	for _, v := range fleet.Config.Vendors {
		s.regs[v.Name] = v.Firmware
		s.vendors = append(s.vendors, v.Name)
	}
	return s, nil
}

func (s *trainStage) counts() counts {
	return counts{Drives: s.frame.Drives(), Records: s.frame.Len(), Rows: s.frame.Len()}
}

func (s *trainStage) run(it *iteration) {
	var buf bytes.Buffer
	var err error
	it.call("dataset.write_mfpac", func() { err = dataset.WriteMFPAC(&buf, s.frame) })
	it.layer["dataset.mfpac_mb"] = mb(uint64(buf.Len()))
	var decoded *dataset.Frame
	if err == nil {
		it.call("dataset.read_telemetry", func() { decoded, err = dataset.ReadTelemetry(bytes.NewReader(buf.Bytes())) })
	}
	ok := false
	it.untimed(func() {
		got := ""
		if err == nil {
			err = framesEqualBits(s.frame, decoded)
			got = digestBytes(buf.Bytes())
		}
		it.op("mfpac", got, err)
		ok = err == nil
	})
	if !ok {
		return
	}
	// Training reads only the decoded frame, as mfpatrain does.
	s.frame, buf = decoded, bytes.Buffer{}

	for _, v := range s.vendors {
		cfg := core.DefaultConfig(v)
		cfg.Registries = s.regs
		cfg.Seed = s.seed
		var (
			p     *core.Prepared
			model *core.Model
			rep   *core.TrainReport
			env   []byte
			err   error
		)
		it.call("core.prepare_frame", func() { p, err = core.PrepareFrame(s.frame, s.tickets, cfg) })
		if err == nil {
			it.call("core.train", func() { model, rep, err = core.Train(p) })
		}
		if err == nil {
			it.call("modelio.marshal", func() { env, err = modelio.Marshal(model) })
		}
		got := ""
		if err == nil {
			it.layer["core.sample_s"] += rep.SampleTime.Seconds()
			it.layer["core.fit_s"] += rep.TrainTime.Seconds()
			it.layer["core.eval_s"] += rep.EvalTime.Seconds()
			it.layer["core.records"] += float64(p.RecordCount)
			it.layer["core.train_rows"] += float64(rep.TrainSamples)
			it.layer["core.test_rows"] += float64(rep.TestSamples)
			it.layer["modelio.envelope_kb"] += float64(len(env)) / 1024
			it.untimed(func() {
				e := rep.Eval
				got = newDigester().
					add("%s|%+v|%x|%+v", digestBytes(env), e.Confusion, math.Float64bits(e.AUC), e.DriveConfusion).
					sum()
			})
		}
		it.op("model/"+v, got, err)
	}
}

// framesEqualBits reports the first difference between two frames,
// comparing float columns by bit pattern.
func framesEqualBits(a, b *dataset.Frame) error {
	if a.Drives() != b.Drives() || a.Len() != b.Len() || a.Cumulated() != b.Cumulated() {
		return fmt.Errorf("decoded frame has %d drives and %d rows, simulated %d and %d",
			b.Drives(), b.Len(), a.Drives(), a.Len())
	}
	for i := 0; i < a.Drives(); i++ {
		// Arena offsets may differ: the simulator leaves slack rows the
		// decoder does not.
		da, db := a.Drive(i), b.Drive(i)
		if da.SerialNumber != db.SerialNumber || da.Vendor != db.Vendor || da.Model != db.Model || da.Rows() != db.Rows() {
			return fmt.Errorf("drive %d differs: %+v vs %+v", i, *db, *da)
		}
		for k := 0; k < da.Rows(); k++ {
			ra, rb := int(da.Start)+k, int(db.Start)+k
			if a.Day(ra) != b.Day(rb) || a.Interpolated(ra) != b.Interpolated(rb) ||
				a.FirmwareAt(ra) != b.FirmwareAt(rb) {
				return fmt.Errorf("drive %s row %d: day, interpolation or firmware differs", da.SerialNumber, k)
			}
			if !bitsEqual(a.SmartRow(ra), b.SmartRow(rb)) || !bitsEqual(a.WRow(ra), b.WRow(rb)) ||
				!bitsEqual(a.BRow(ra), b.BRow(rb)) {
				return fmt.Errorf("drive %s row %d: counters differ", da.SerialNumber, k)
			}
		}
	}
	return nil
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
