// Command mfpareport regenerates the paper's tables and figures from a
// simulated fleet. With no -exp flag it runs every experiment in the
// registry and prints them in order; a full run at -scale 0.2 is the
// repository's EXPERIMENTS.md source.
//
// Usage:
//
//	mfpareport [-exp fig9] [-scale 0.2] [-seed 1] [-list] [-svg figures]
//	           [-dump fleet.mfpac]
//
// -dump writes the exact telemetry the report ran on — to the MFPAC
// binary columnar container when the path ends in .mfpac, CSV
// otherwise — so mfpatrain/mfpaagent runs can consume the same fleet.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/simfleet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mfpareport: ")

	var (
		exp     = flag.String("exp", "", "experiment name (empty = all); see -list")
		scale   = flag.Float64("scale", 0.2, "failure-count scale factor")
		seed    = flag.Int64("seed", 1, "fleet seed")
		list    = flag.Bool("list", false, "list experiments and exit")
		svgDir  = flag.String("svg", "", "directory to write SVG figures into (optional)")
		dump    = flag.String("dump", "", "write the report fleet's telemetry to this path (.mfpac = binary container, else CSV)")
		workers = flag.Int("workers", 0, "worker goroutines for simulation and experiments (0 = GOMAXPROCS, 1 = serial; output is identical)")
	)
	flag.Parse()

	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-14s %s\n", r.Name, r.Description)
		}
		return
	}

	start := time.Now()
	fleetCfg := simfleet.DefaultConfig()
	fleetCfg.FailureScale = *scale
	fleetCfg.Seed = *seed
	fleetCfg.Workers = *workers
	ctx, err := experiments.NewContextWith(fleetCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d drives, %d records, %d faulty (scale %g, seed %d, %v)\n\n",
		ctx.Fleet.Data.Drives(), ctx.Fleet.Data.Len(), ctx.Fleet.FaultyCount(),
		*scale, *seed, time.Since(start).Round(time.Millisecond))

	if *dump != "" {
		if err := dumpTelemetry(*dump, ctx); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dumped fleet telemetry to %s (%s)\n\n", *dump, dataset.FormatForPath(*dump))
	}

	runners := experiments.Registry()
	if *exp != "" {
		r, ok := experiments.Lookup(*exp)
		if !ok {
			log.Fatalf("unknown experiment %q; use -list", *exp)
		}
		runners = []experiments.Runner{r}
	}

	failed := 0
	for _, r := range runners {
		t0 := time.Now()
		out, err := r.Run(ctx)
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", r.Name, err)
			continue
		}
		fmt.Println(out)
		fmt.Printf("(%s in %v)\n\n", r.Name, time.Since(t0).Round(time.Millisecond))

		if *svgDir != "" {
			if fig, ok := out.(experiments.Figurer); ok {
				files, err := fig.Figures()
				if err != nil {
					fmt.Fprintf(os.Stderr, "figures for %s failed: %v\n", r.Name, err)
					continue
				}
				for name, data := range files {
					path := filepath.Join(*svgDir, name+".svg")
					if err := os.WriteFile(path, data, 0o644); err != nil {
						log.Fatal(err)
					}
					fmt.Printf("wrote %s\n\n", path)
				}
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// dumpTelemetry writes the report fleet's telemetry in the format the
// path implies.
func dumpTelemetry(path string, ctx *experiments.Context) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dataset.WriteTelemetry(f, ctx.Fleet.Data, dataset.FormatForPath(path)); err != nil {
		return err
	}
	return f.Close()
}
