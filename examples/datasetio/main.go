// Datasetio: the data-pipeline scenario — export a fleet's telemetry
// in both hand-off formats (CSV and the MFPAC binary columnar
// container), compare their sizes, read both back through the
// format-sniffing loader, and verify a model trained on the
// re-imported data matches one trained in-memory.
//
//	go run ./examples/datasetio
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
	"repro/internal/dataset"
)

func main() {
	log.SetFlags(0)

	fleetCfg := mfpa.DefaultFleetConfig()
	fleetCfg.Days = 150
	fleetCfg.FailureScale = 0.05
	fleet, err := mfpa.SimulateFleet(fleetCfg)
	if err != nil {
		log.Fatal(err)
	}

	// Export to both interchange formats, straight from the fleet's
	// columnar frame.
	frame := fleet.Data
	var csvBuf, pacBuf bytes.Buffer
	if err := dataset.WriteTelemetry(&csvBuf, frame, dataset.FormatCSV); err != nil {
		log.Fatal(err)
	}
	if err := dataset.WriteTelemetry(&pacBuf, frame, dataset.FormatMFPAC); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d records (%d drives): %.1f MB CSV, %.1f MB MFPAC (%.1fx smaller)\n",
		frame.Len(), frame.Drives(),
		float64(csvBuf.Len())/1e6, float64(pacBuf.Len())/1e6,
		float64(csvBuf.Len())/float64(pacBuf.Len()))

	// Re-import through the format-sniffing loader: both payloads go
	// through the same call, detected by their leading bytes.
	restored, err := dataset.ReadTelemetry(&pacBuf)
	if err != nil {
		log.Fatal(err)
	}
	fromCSV, err := dataset.ReadTelemetry(&csvBuf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-imported %d records (%d drives) from MFPAC, %d from CSV\n",
		restored.Len(), restored.Drives(), fromCSV.Len())
	if restored.Len() != frame.Len() || fromCSV.Len() != frame.Len() {
		log.Fatalf("round trip lost records: %d/%d vs %d", restored.Len(), fromCSV.Len(), frame.Len())
	}

	// Train on all three copies; the results must be identical because
	// every pipeline stage is deterministic and both containers
	// round-trip values bit-exactly.
	cfg := mfpa.DefaultConfig("I")
	_, repA, err := mfpa.Train(frame, fleet.Tickets, cfg)
	if err != nil {
		log.Fatal(err)
	}
	_, repB, err := mfpa.Train(restored, fleet.Tickets, cfg)
	if err != nil {
		log.Fatal(err)
	}
	_, repC, err := mfpa.Train(fromCSV, fleet.Tickets, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nin-memory:    TPR %.4f FPR %.4f AUC %.4f\n", repA.Eval.TPR(), repA.Eval.FPR(), repA.Eval.AUC)
	fmt.Printf("via MFPAC:    TPR %.4f FPR %.4f AUC %.4f\n", repB.Eval.TPR(), repB.Eval.FPR(), repB.Eval.AUC)
	fmt.Printf("via CSV:      TPR %.4f FPR %.4f AUC %.4f\n", repC.Eval.TPR(), repC.Eval.FPR(), repC.Eval.AUC)
	if repA.Eval.Confusion != repB.Eval.Confusion || repA.Eval.Confusion != repC.Eval.Confusion {
		log.Fatal("round-tripped data changed the model!")
	}
	fmt.Println("\nboth round trips preserved the model exactly ✓")
}
