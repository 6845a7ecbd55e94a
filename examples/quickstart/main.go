// Quickstart: simulate a consumer SSD fleet, train the paper's best
// configuration (SFWB features + random forest) for one vendor, and
// print the headline metrics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	log.SetFlags(0)

	// 1. A fleet: telemetry records, trouble tickets, ground truth.
	//    (With real data you would load a dataset.Frame from CSV or
	//    MFPAC with dataset.ReadTelemetry, and fill a ticket.Store.)
	fleetCfg := mfpa.DefaultFleetConfig()
	fleetCfg.FailureScale = 0.08 // keep the demo quick
	fleet, err := mfpa.SimulateFleet(fleetCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet: %d drives, %d telemetry records, %d failures\n",
		fleet.Data.Drives(), fleet.Data.Len(), fleet.FaultyCount())

	// 2. Train MFPA for vendor I: discontinuity optimisation →
	//    failure-time identification → SFWB features → RF.
	cfg := mfpa.DefaultConfig("I")
	model, report, err := mfpa.Train(fleet.Data, fleet.Tickets, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the held-out evaluation.
	fmt.Printf("\nMFPA (%s on %s, vendor I)\n", model.TrainerName, cfg.Group)
	fmt.Printf("  decision threshold: %.3f (calibrated on TS-CV folds)\n", model.Threshold)
	fmt.Printf("  TPR: %6.2f%%   (paper: 98.18%%)\n", report.Eval.TPR()*100)
	fmt.Printf("  FPR: %6.2f%%   (paper: 0.56%%)\n", report.Eval.FPR()*100)
	fmt.Printf("  AUC: %6.4f\n", report.Eval.AUC)
	fmt.Printf("  PDR: %6.2f%%\n", report.Eval.PDR()*100)
	fmt.Printf("  drive-level: TPR %.2f%% / FPR %.2f%%\n",
		report.Eval.DriveConfusion.TPR()*100, report.Eval.DriveConfusion.FPR()*100)
}
