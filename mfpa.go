// Package mfpa is the public entry point of this repository: a Go
// implementation of MFPA, the multidimensional-feature SSD failure
// prediction approach for consumer storage systems from "Multidimensional
// Features Helping Predict Failures in Production SSD-Based Consumer
// Storage Systems" (DATE 2023).
//
// The package re-exports the pipeline pieces a downstream user needs:
//
//   - simulate a consumer fleet (or load your own telemetry into a
//     Frame with dataset.ReadTelemetry, from CSV or the MFPAC
//     container, and fill a ticket.Store),
//   - prepare it (discontinuity optimisation, cumulative counters,
//     failure-time identification),
//   - train a per-vendor failure predictor over any SFWB feature group
//     with any of the five supported algorithms,
//   - evaluate with the paper's metrics (TPR/FPR/ACC/AUC/PDR) or score
//     live records.
//
// Quick start:
//
//	fleet, _ := mfpa.SimulateFleet(mfpa.DefaultFleetConfig())
//	cfg := mfpa.DefaultConfig("I")
//	model, report, _ := mfpa.Train(fleet.Data, fleet.Tickets, cfg)
//	fmt.Printf("TPR %.4f FPR %.4f\n", report.Eval.TPR(), report.Eval.FPR())
//
// The internal packages remain importable within this module for
// fine-grained control; this façade keeps the common path to one
// import.
package mfpa

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/simfleet"
	"repro/internal/ticket"
)

// Re-exported pipeline types. See the internal packages for full
// documentation of each.
type (
	// Config parameterises an MFPA pipeline run.
	Config = core.Config
	// Model is a trained failure predictor.
	Model = core.Model
	// TrainReport carries the held-out evaluation and stage overheads.
	TrainReport = core.TrainReport
	// Evaluation bundles the paper's metrics at sample and drive level.
	Evaluation = core.Evaluation
	// Algorithm names one of the five supported learners.
	Algorithm = core.Algorithm
	// FeatureGroup selects the SFWB feature families (Table V).
	FeatureGroup = features.Group
	// FleetConfig parameterises the consumer-fleet simulator.
	FleetConfig = simfleet.Config
	// Fleet is a simulated consumer population.
	Fleet = simfleet.Result
	// Frame is the columnar drive telemetry.
	Frame = dataset.Frame
	// TicketStore holds the after-sales RaSRF tickets.
	TicketStore = ticket.Store
)

// The five candidate algorithms (Figs. 10/14).
const (
	Bayes   = core.AlgoBayes
	SVM     = core.AlgoSVM
	RF      = core.AlgoRF
	GBDT    = core.AlgoGBDT
	CNNLSTM = core.AlgoCNNLSTM
)

// The seven feature groups of Table V.
var (
	SFWB = features.GroupSFWB
	SFW  = features.GroupSFW
	SFB  = features.GroupSFB
	SF   = features.GroupSF
	S    = features.GroupS
	W    = features.GroupW
	B    = features.GroupB
)

// DefaultConfig returns the paper's best configuration (SFWB + RF,
// θ=7, 7-day positive window, 3:1 under-sampling) for one vendor.
func DefaultConfig(vendor string) Config { return core.DefaultConfig(vendor) }

// DefaultFleetConfig returns the fleet configuration used by the
// repository's experiments: a Table VI-proportioned population over a
// seven-month window.
func DefaultFleetConfig() FleetConfig { return simfleet.DefaultConfig() }

// SimulateFleet generates a synthetic consumer fleet: telemetry,
// trouble tickets, and ground truth. Deterministic in cfg.Seed.
func SimulateFleet(cfg FleetConfig) (*Fleet, error) { return simfleet.Simulate(cfg) }

// Train runs the full MFPA pipeline (prepare + train + held-out
// evaluation) on a fleet's telemetry and tickets.
func Train(data *Frame, tickets *TicketStore, cfg Config) (*Model, *TrainReport, error) {
	return core.TrainOnFrame(data, tickets, cfg)
}

// Prepare runs only the data stages, for callers who want to train
// several models on one prepared fleet.
func Prepare(data *Frame, tickets *TicketStore, cfg Config) (*core.Prepared, error) {
	return core.PrepareFrame(data, tickets, cfg)
}
