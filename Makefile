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

# Seed-commit BenchmarkForestTrain numbers (pre histogram engine),
# measured with `git worktree add <dir> <ref>` + `go test -bench
# BenchmarkForestTrain -benchmem -benchtime 2s ./internal/ml/forest`.
# Re-measure on new hardware before comparing.
BASELINE_REF    ?= 0e00b81
BASELINE_NS     ?= 77893883
BASELINE_BYTES  ?= 21106284
BASELINE_ALLOCS ?= 34346

# bench writes BENCH_train.json (training: the histogram engine, and
# its speedup over the seed-commit numbers below), BENCH_predict.json
# (scoring: flattened batch kernel vs the per-row interface path), and
# BENCH_io.json (MFPAC binary telemetry container vs the CSV compat
# format, gated on a bit-exact load equivalence check) via
# cmd/mfpabench. Serving is measured end to end by the fleetops
# workload of e2ebench.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./internal/parallel ./internal/simfleet ./internal/dataset ./internal/features ./internal/ml/search ./internal/ml/predict ./internal/ml/forest ./internal/ml/gbdt ./internal/ml/nn
	$(GO) run ./cmd/mfpabench -out BENCH_train.json -predict-out BENCH_predict.json -io-out BENCH_io.json -benchtime 2s \
		-baseline-ref $(BASELINE_REF) -baseline-ns $(BASELINE_NS) \
		-baseline-bytes $(BASELINE_BYTES) -baseline-allocs $(BASELINE_ALLOCS)

report:
	$(GO) run ./cmd/mfpareport -scale 0.2
