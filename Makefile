# Makefile — developer entry points, mirroring the CI pipeline
# (.github/workflows/ci.yml). `make check` is the full local gate;
# `make check SHORT=1` is the fast pre-push variant.

GO ?= go

.PHONY: check test test-race test-sim-nondeterminism test-sim-import-export test-sim-after-import bench bench-smoke bench-compare bench-serve service-load fmt

## check: formatting, vet, build, race tests, invariant + determinism stages
check:
	SHORT=$(SHORT) ./scripts/check.sh

## test: the tier-1 gate (build + full test suite)
test:
	$(GO) build ./...
	$(GO) test ./...

## test-race: the full test suite (chaos/churn suites included) under the
## race detector, with caching disabled so every push re-exercises the races
test-race:
	$(GO) test -race -count=1 ./...

## test-sim-nondeterminism: the multi-seed determinism & metamorphic suite,
## including the digest-corpus serial-vs-parallel identity check (the suites
## fan their runs out through internal/harness's parallel executor).
## INVARIANT_SEEDS widens the metamorphic sweep (CI long mode uses 12).
test-sim-nondeterminism:
	INVARIANT_SEEDS=$(or $(INVARIANT_SEEDS),8) $(GO) test -race -count=1 \
		-run 'TestDeterminismDigest|TestMetamorphicInvariantVerdicts|TestRandomDeploymentsInvariants|TestDigestCorpus' \
		./internal/harness/

## test-sim-import-export: the export-side snapshot gate — the wire format
## (round trip, golden header/digest, forward-incompatibility and corruption
## rejection) plus the export matrix: snapshots cut at every barrier point
## must be bit-identical across exporting shard counts.
test-sim-import-export:
	$(GO) test -race -count=1 ./internal/snapshot/
	$(GO) test -race -count=1 \
		-run 'TestImportExport|TestSnapshotMidFaultRetry|TestSnapshotCrashRecovery|TestSnapshotQuiescent|TestSnapshotRejectsUnserializable|TestVerifyImport' \
		./internal/harness/

## test-sim-after-import: the restore-side gate — import, replay to the
## barrier, byte-identity proof, continue; completion digest, checker digest
## and stats must match the uninterrupted run across the multi-seed ×
## barrier-point × shard-count matrix (including cross-count export/import).
test-sim-after-import:
	$(GO) test -race -count=1 -run 'TestSimulationAfterImport' ./internal/harness/

## bench: the repository-root micro/macro benchmarks
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

## bench-smoke: run the smoke workload and gate against the committed baseline
bench-smoke:
	$(GO) run ./cmd/blessbench -smoke=BENCH_smoke.json -baseline scripts/bench_baseline.json

## bench-compare: run the hot-path/executor benchmarks and gate against the
## committed envelope in BENCH_sim.json (RECORD=1 refreshes it)
bench-compare:
	./scripts/bench_compare.sh

## bench-serve: the serving fast-path benchmark — one Serve decision taken
## inline under its tenant's lock; the steady state must stay zero-alloc
## (exact gate in BENCH_sim.json via bench-compare)
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeSteadyState$$' -benchmem ./cmd/blessd/internal/planner/

## service-load: boot blessd and run both blessload gates over real TCP —
## the serial-vs-concurrent digest check and the closed-loop ramp with
## shed-rate / §6.9-overhead / throughput enforcement
service-load:
	./scripts/service_load.sh

fmt:
	gofmt -w .
