// Agent: the paper's deployment scenario end to end — the fleet side
// trains an MFPA model and serialises it; the client side loads it into
// the online scoring engine, which scores each day's telemetry record
// locally (microsecond predictions) under the model's own gap policy,
// raises a backup alarm with hysteresis, and accepts a pushed model
// update (the paper re-iterates every two months).
//
//	go run ./examples/agent
package main

import (
	"fmt"
	"log"
	"sort"

	"repro"
	"repro/internal/dataset"
	"repro/internal/modelio"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)

	// ---- Fleet side: train and publish. ----
	fleetCfg := mfpa.DefaultFleetConfig()
	fleetCfg.FailureScale = 0.06
	fleet, err := mfpa.SimulateFleet(fleetCfg)
	if err != nil {
		log.Fatal(err)
	}
	model, report, err := mfpa.Train(fleet.Data, fleet.Tickets, mfpa.DefaultConfig("I"))
	if err != nil {
		log.Fatal(err)
	}
	blob, err := modelio.Marshal(model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fleet side: trained %s (TPR %.1f%%, FPR %.2f%%), model blob %.1f KB\n",
		model.TrainerName, report.Eval.TPR()*100, report.Eval.FPR()*100, float64(len(blob))/1024)

	// ---- Client side: load the published model into a scorer. ----
	deployed, err := modelio.Unmarshal(blob)
	if err != nil {
		log.Fatal(err)
	}
	sc, err := serve.New(deployed, serve.Options{AlarmAfter: 2, Explain: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client side: scorer ready (threshold %.3f, alarm after 2 consecutive flags)\n\n", sc.Threshold())

	// Replay one failing drive's daily telemetry through the scorer one
	// record at a time, as the on-machine monitor would see it.
	var sn string
	var failDay int
	sns := make([]string, 0, len(fleet.Truth))
	for candidate := range fleet.Truth {
		sns = append(sns, candidate)
	}
	sort.Strings(sns)
	for _, candidate := range sns {
		truth := fleet.Truth[candidate]
		if truth.Vendor == "I" && truth.Kind == "faulty" {
			sn, failDay = candidate, truth.FailDay
			break
		}
	}
	series, _ := fleet.Data.Series(sn)
	fmt.Printf("replaying drive %s (dies day %d):\n", sn, failDay)
	alarmDay := -1
	for i := range series.Records {
		// A record after a short gap also returns the mean-filled days
		// before it; any of them may raise the alarm.
		out, _, err := sc.ObserveDay([]dataset.Record{series.Records[i]})
		if err != nil {
			log.Fatal(err)
		}
		for _, as := range out {
			if as.Alarmed && alarmDay == -1 {
				alarmDay = as.Day
				fmt.Printf("  day %3d: P(faulty)=%.3f  ALARM — start backup & RMA (%d days before failure)\n",
					as.Day, as.Probability, failDay-as.Day)
				for _, f := range as.TopFactors {
					fmt.Printf("           because %-8s contributed +%.3f\n", f.Feature, f.Contribution)
				}
			}
		}
	}
	if alarmDay == -1 {
		fmt.Println("  (no alarm — this drive failed without precursors)")
	}

	// ---- Two months later: the server pushes a re-iterated model. ----
	refreshCfg := mfpa.DefaultConfig("I")
	refreshCfg.Seed = 2
	refreshed, _, err := mfpa.Train(fleet.Data, fleet.Tickets, refreshCfg)
	if err != nil {
		log.Fatal(err)
	}
	blob2, err := modelio.Marshal(refreshed)
	if err != nil {
		log.Fatal(err)
	}
	pushed, err := modelio.Unmarshal(blob2)
	if err != nil {
		log.Fatal(err)
	}
	if err := sc.UpdateModel(pushed); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmodel update pushed and applied (new threshold %.3f)\n", sc.Threshold())
}
