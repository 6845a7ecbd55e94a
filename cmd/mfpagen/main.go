// Command mfpagen simulates a consumer SSD fleet and writes its
// telemetry to a CSV file or an MFPAC binary columnar container (plus
// a tickets CSV and a ground-truth CSV), so the other tools and
// external analyses can consume a fixed dataset.
//
// Usage:
//
//	mfpagen -out fleet.csv [-format csv|mfpac] [-tickets tickets.csv]
//	        [-truth truth.csv] [-seed 1] [-days 210] [-scale 0.2] [-drift]
//
// The default -format "" picks by -out extension: .mfpac writes the
// binary container, anything else CSV. The reading tools (mfpatrain,
// mfpaagent) detect either format by its leading bytes.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/simfleet"
	"repro/internal/ticket"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mfpagen: ")

	var (
		out         = flag.String("out", "fleet.csv", "telemetry output path")
		format      = flag.String("format", "", "telemetry format: csv|mfpac (empty = by -out extension)")
		ticketsPath = flag.String("tickets", "", "tickets CSV output path (optional)")
		truthPath   = flag.String("truth", "", "ground-truth CSV output path (optional)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		days        = flag.Int("days", 0, "observation window length in days (0 = default)")
		scale       = flag.Float64("scale", 0.2, "failure-count scale factor")
		drift       = flag.Bool("drift", false, "use the drifting-fleet configuration (Figs. 12/16)")
		workers     = flag.Int("workers", 0, "simulation worker goroutines (0 = GOMAXPROCS, 1 = serial; output is identical)")
	)
	flag.Parse()

	cfg := simfleet.DefaultConfig()
	if *drift {
		cfg = simfleet.DriftConfig()
	}
	cfg.Seed = *seed
	cfg.FailureScale = *scale
	cfg.Workers = *workers
	if *days > 0 {
		cfg.Days = *days
	}

	telFormat := dataset.FormatForPath(*out)
	if *format != "" {
		var ok bool
		if telFormat, ok = dataset.ParseFormat(*format); !ok {
			log.Fatalf("unknown -format %q (want csv or mfpac)", *format)
		}
	}

	// Telemetry is written straight from the simulation arena; the
	// MFPAC container encodes its blocks from the same slabs.
	res, err := simfleet.SimulateFrame(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeTelemetry(*out, res.Frame, telFormat); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%s): %d drives, %d records, %d faulty\n",
		*out, telFormat, res.Frame.Drives(), res.Frame.Len(), res.FaultyCount())

	if *ticketsPath != "" {
		if err := writeTickets(*ticketsPath, res.Tickets); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d tickets\n", *ticketsPath, res.Tickets.Len())
	}
	if *truthPath != "" {
		if err := writeTruth(*truthPath, res); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d drives\n", *truthPath, len(res.Truth))
	}
}

func writeTelemetry(path string, fr *dataset.Frame, format dataset.Format) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dataset.WriteTelemetry(f, fr, format); err != nil {
		return err
	}
	return f.Close()
}

func writeTickets(path string, store *ticket.Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ticket.WriteCSV(f, store); err != nil {
		return err
	}
	return f.Close()
}

func writeTruth(path string, res *simfleet.FrameResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{"sn", "vendor", "model", "firmware", "faulty", "fail_day", "fail_hours", "kind"}); err != nil {
		return err
	}
	sns := make([]string, 0, len(res.Truth))
	for sn := range res.Truth {
		sns = append(sns, sn)
	}
	sort.Strings(sns)
	for _, sn := range sns {
		t := res.Truth[sn]
		if err := w.Write([]string{
			t.SerialNumber, t.Vendor, t.Model, t.Firmware,
			strconv.FormatBool(t.Faulty), strconv.Itoa(t.FailDay),
			strconv.FormatFloat(t.FailPowerOnHours, 'f', 1, 64), t.Kind,
		}); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return f.Close()
}
