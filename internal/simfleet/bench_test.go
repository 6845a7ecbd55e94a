package simfleet

import (
	"math/rand"
	"testing"

	"repro/internal/bsod"
	"repro/internal/smartattr"
	"repro/internal/winevent"
)

func BenchmarkSimulateTinyFleet(b *testing.B) {
	cfg := TinyConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Data.Len() == 0 {
			b.Fatal("empty fleet")
		}
	}
}

// BenchmarkSimulateWorkers compares the serial drive loop against the
// full fan-out; outputs are bit-identical, only wall-clock differs.
func BenchmarkSimulateWorkers(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=gomaxprocs", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := TinyConfig()
			cfg.Workers = bc.workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Simulate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Data.Len() == 0 {
					b.Fatal("empty fleet")
				}
			}
		})
	}
}

func BenchmarkDriveDay(b *testing.B) {
	cfg := TinyConfig()
	r := rand.New(rand.NewSource(driveRNGSeed(cfg.Seed, "bench-drive")))
	v := cfg.Vendors[0]
	d := newDriveState(r, "bench-drive", &v, kindFaulty, 80, &cfg)
	var smart smartattr.Values
	w, bc := winevent.NewCounts(), bsod.NewCounts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.stepDayInto(r, i%cfg.Days, &cfg, &smart, w, bc)
	}
}
