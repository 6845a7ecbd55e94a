GO ?= go

.PHONY: build test vet lint race chaos verify bench report

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint gates on vet plus gofmt: any file gofmt would rewrite fails the
# target and is listed.
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# race exercises every parallelised stage (the parallel engine, fleet
# simulation, the fused frame pipeline, the MFPAC block
# codec, labelling, extraction, training, sampling views, the pipeline
# front-end, search, concurrent CNN_LSTM scoring, and the sharded
# online scoring engine) under the race detector; determinism tests
# double as ordering checks.
race:
	$(GO) vet ./...
	$(GO) test -race ./internal/parallel ./internal/simfleet ./internal/ml/... ./internal/dataset ./internal/labeling ./internal/ingest ./internal/features ./internal/sampling ./internal/core ./internal/serve ./internal/fleetops ./internal/atomicio ./internal/faultinject

# chaos runs the fault-tolerance suite under the race detector: seeded
# record corruption, scorer/swap/observe fault seams, crash-safe
# persistence, and quarantine determinism across worker/shard counts and
# batch shapes.
chaos:
	$(GO) test -race -run 'Chaos|Corrupt|Fault|Quarantine|Revive|Degraded|Retr|Crash|Torn|KillMidWrite|StateFile|Atomic|WriteFile|Open|Hooks' \
		./internal/atomicio ./internal/faultinject ./internal/serve ./internal/fleetops ./internal/ingest ./internal/dataset ./internal/modelio

# verify is the full local gate: build, lint, unit tests, chaos suite.
verify: build lint test chaos

# bench runs the package benchmarks (simulation, telemetry codecs,
# feature extraction, search, batch scoring, forest/GBDT training and
# the CNN_LSTM kernel). End-to-end numbers — the report, the
# mfpagen → mfpatrain path and the fleet-ops loop — come from
# `bash e2ebench/run.sh --workload report|train|fleetops`.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./internal/parallel ./internal/simfleet ./internal/dataset ./internal/features ./internal/ml/search ./internal/ml/predict ./internal/ml/forest ./internal/ml/gbdt ./internal/ml/nn

report:
	$(GO) run ./cmd/mfpareport -scale 0.2
