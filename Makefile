# GPUSimPow reproduction — build/test/benchmark entry points.
#
# `make ci` is the gate every change must pass: gofmt, vet, the
# repo-specific lints, build, the full test suite under the race detector
# (load-bearing since the experiment sweeps fan out over internal/runner's
# worker pool), a short fuzz pass, one pass of the simulator
# microbenchmarks, and the service, restart and fleet drills. The
# reproduced paper numbers are gated by the exact scenario goldens the test
# suite checks (see golden-update); benchmark/ is the measured performance
# ledger.

GO ?= go

.PHONY: ci vet lint build test race fuzz bench ci-service ci-restart ci-fleet fmt-check golden-update profile

ci: fmt-check vet lint build race fuzz bench ci-service ci-restart ci-fleet

vet:
	$(GO) vet ./...

# Repo-specific static analysis (cmd/gpowlint): the determinism and
# cache-partition invariants go vet cannot see — timing-key coverage,
# map-iteration order, wall-clock reads, wire-struct json tags, faultpoint
# name drift. See docs/LINTS.md.
lint:
	$(GO) run ./cmd/gpowlint

# gofmt gate: any file gofmt would rewrite fails CI.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

# Service smoke: start gpowd on a loopback port, run the cheapest sweep
# scenario in-process and through the daemon, diff the NDJSON cell
# records AND the reduced report (JSON + rendered text) byte for byte
# (see scripts/service_smoke.sh).
ci-service:
	./scripts/service_smoke.sh

# Crash/restart drill: kill gpowd mid-job via the
# crash-after-journal-append faultpoint, restart it on the same state
# dir, and diff the self-healing client's resumed output and the
# recovered job's report byte for byte against an uninterrupted run
# (see scripts/service_restart.sh).
ci-restart:
	./scripts/service_restart.sh

# Fleet chaos drill: run 2 gpowd backends behind gpowfleet, kill the
# job's ring-owner backend mid-run via faultpoint, and prove the riding
# client's NDJSON and the failed-over job's report match an
# uninterrupted single-node run byte for byte; then drain a backend and
# prove it takes no new work while still serving its existing jobs
# (see scripts/fleet_drill.sh, docs/FLEET.md).
ci-fleet:
	./scripts/fleet_drill.sh

# The golden files run as part of `make race`/`make test`:
#   - internal/experiments/testdata: every scenario's NDJSON record stream
#     (records/), full-precision report JSON (reports/) and rendered text
#     (*.golden);
#   - internal/sim/testdata/activity.golden: every simulator Activity
#     counter of the Table I suite;
#   - internal/analysis/testdata/findings.golden: gpowlint's findings on
#     its seeded fixture.
# Regenerate all of them after an intentional output change:
golden-update:
	$(GO) test ./internal/experiments -run TestGoldenReports -update
	$(GO) test ./internal/sim -run TestActivityGolden -update
	$(GO) test ./internal/analysis -run TestFixtureFindings -update

# Profile one scenario run end to end with the gpowexp pprof flags:
#   make profile SCENARIO=fig6
# then `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
SCENARIO ?= fig6
profile:
	$(GO) run ./cmd/gpowexp run $(SCENARIO) -cpuprofile cpu.prof -memprofile mem.prof

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# A short coverage-guided pass of FuzzProgramValidate: Validate must never
# panic, and what it accepts must decode and disassemble. Crashers it finds
# land in internal/kernel/testdata/fuzz/ and replay in every `go test`.
fuzz:
	$(GO) test ./internal/kernel -run=NONE -fuzz=FuzzProgramValidate -fuzztime=10s

# One pass of the root microbenchmarks (simulator and measurement layer,
# one iteration each), so they cannot silently rot; use -benchtime and
# -cpuprofile for A/B runs.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=NONE .
