// Lookahead: the client-side early-warning scenario — how many days
// before an SSD dies can MFPA raise the alarm (Fig. 19), and what does
// live scoring of one drive's record stream look like?
//
//	go run ./examples/lookahead
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"repro"
	"repro/internal/features"
)

func main() {
	log.SetFlags(0)

	fleetCfg := mfpa.DefaultFleetConfig()
	fleetCfg.FailureScale = 0.08
	fleet, err := mfpa.SimulateFleet(fleetCfg)
	if err != nil {
		log.Fatal(err)
	}

	cfg := mfpa.DefaultConfig("I")
	prep, err := mfpa.Prepare(fleet.Data, fleet.Tickets, cfg)
	if err != nil {
		log.Fatal(err)
	}
	model, _, err := mfpa.Train(fleet.Data, fleet.Tickets, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Sweep the lookahead window: probe each faulty drive exactly N
	// days before its labelled failure.
	fmt.Println("== TPR vs lookahead window (Fig 19) ==")
	fmt.Printf("%-10s %8s %8s\n", "N (days)", "TPR", "probes")
	for n := 1; n <= 21; n += 4 {
		probes := features.PositiveSamplesAt(prep.Frame, prep.Labels, prep.Extractor, n, 1)
		flagged := 0
		for _, p := range probes {
			if model.Predict(p.X) >= model.Threshold {
				flagged++
			}
		}
		tpr := 0.0
		if len(probes) > 0 {
			tpr = float64(flagged) / float64(len(probes))
		}
		bar := strings.Repeat("#", int(tpr*30))
		fmt.Printf("%-10d %7.2f%% %8d  %s\n", n, tpr*100, len(probes), bar)
	}

	// Live scoring: replay one faulty drive's prepared record stream
	// through the model, as the on-client agent would.
	data := prep.Frame
	var faultySN string
	var failDay int
	sns := make([]string, 0, len(prep.Labels))
	for sn := range prep.Labels {
		sns = append(sns, sn)
	}
	sort.Strings(sns)
	for _, sn := range sns {
		if _, ok := data.DriveIndex(sn); ok {
			faultySN = sn
			failDay = prep.Labels[sn].FailDay
			break
		}
	}
	if faultySN == "" {
		log.Fatal("no labelled faulty drive with telemetry")
	}
	series, _ := data.Series(faultySN)
	fmt.Printf("\n== Live scoring of drive %s (fails day %d) ==\n", faultySN, failDay)
	fmt.Printf("%-6s %-12s %s\n", "Day", "P(faulty)", "")
	start := len(series.Records) - 12
	if start < 0 {
		start = 0
	}
	for _, rec := range series.Records[start:] {
		p := model.Predict(prep.Extractor.Extract(&rec))
		marker := ""
		if p >= model.Threshold {
			marker = "  << ALARM"
		}
		fmt.Printf("%-6d %-12.4f %s%s\n", rec.Day, p, strings.Repeat("*", int(p*20)), marker)
	}
}
