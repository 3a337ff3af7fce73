GO ?= go

.PHONY: check fmt-check doclint build build-arm64 vet test race bench-module race-timing race-durability fuzz-smoke bench-smoke bench-writehot bench-timing fidelity fidelity-record

# check is the pre-merge gate: static checks, full tests under the race
# detector, a cross-build of the portable code paths, and a short smoke of
# the steady-state write benchmark so a regression that reintroduces
# hot-path allocations fails fast. bench-module compiles and tests the
# benchmark module, which none of the root ./... steps reach.
check: fmt-check doclint vet build build-arm64 test race bench-module bench-smoke

# fmt-check fails (listing the offenders) when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# doclint is the exported-comment lint (ci/doclint): every exported
# top-level declaration in the repository needs a godoc comment.
doclint:
	$(GO) run ./ci/doclint ./...

build:
	$(GO) build ./...

# build-arm64 cross-builds and vets for a non-amd64 target, so the
# crypto/aes pad path internal/otp falls back to off amd64 keeps compiling.
build-arm64:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/otp/

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-module vets and tests bench/, a Go module of its own (deuce/bench)
# that the root `go build/vet/test ./...` never compiles, in the module
# mode bench/run.sh builds it in: a change to an API bench/ calls fails
# here rather than on the first benchmark run.
bench-module:
	cd bench && GOWORK=off GOPROXY=off $(GO) vet ./... && GOWORK=off GOPROXY=off $(GO) test ./...

# race-timing is the focused race pass for the deterministic-parallelism
# machinery: the timing model's suite in internal/timing; in internal/exp
# the cell executor (runCells on a wide pool against a serial run, and
# fig16/fig17 sharing one set of timed cells), the warm-replay and
# planner paths and the stream store's concurrent prefix extension; the
# atomic obs registry's concurrent hammer, the sharded serving front
# end's differential replay suite (internal/servefront), and the
# one-Generator-per-goroutine contract of the pad kernel (internal/otp),
# all under the race detector.
# A subset of
# `race`, split out so CI can run it on every push even when the full
# race matrix is pruned.
race-timing:
	$(GO) test -race ./internal/timing/
	$(GO) test -race -run 'TestPerfCells|TestRunCells|TestWarm|TestPlan|TestStream' ./internal/exp/
	$(GO) test -race ./internal/obs/ ./internal/servefront/
	$(GO) test -race -count=10 -run TestOneGeneratorPerGoroutine ./internal/otp/

# race-durability is the focused race pass for the persistence layer: the
# backend implementations and their failure-path tests, the pcmdev /
# ctrstore page mapping, the typed-error Restore tests of both (a failed
# Restore changes nothing), the durable snapshot framing with its
# truncate-at-every-offset atomicity test, the journal's crash-point
# enumeration (internal/backend), and the restart differential suite
# (every scheme replayed on mem vs file vs file synced every 64 writes vs
# dir vs a mid-trace close/reopen vs file synced every 8 writes and
# restarted mid-trace — all six must be bit-identical). A subset of
# `race`, split out so the CI durability job can run it on every push.
race-durability:
	$(GO) test -race ./internal/backend/
	$(GO) test -race -run 'TestBackend|TestRestore' ./internal/pcmdev/ ./internal/ctrstore/
	$(GO) test -race -run 'TestPowerCycle|TestLoadState|TestPersistence|TestINVMMSnapshot' ./internal/core/
	$(GO) test -race -run 'TestRestartDifferential|TestBackend|TestWriteFileAtomic|TestRestoreNamesSchemeMismatch' .

# fuzz-smoke runs fourteen fuzz targets for ten seconds each: the DEUCE write
# kernel (the lane-mask deuceStepInto and dualDecryptInto against their
# byte-loop decrypt-then-step references on fuzzed line state), the
# device's bit-sliced wear accounting against its per-flip reference on
# fuzzed geometry and images, the device's one-pass tracked write
# (WriteTracked against a byte-loop statement of the word rule followed by
# Write on a twin device, on fuzzed geometry, images, pads and resets),
# pcmdev.Restore and ctrstore.Restore on
# arbitrary snapshots (typed errors only, never a partial restore, never
# a counter past its width), a DEUCE memory's LoadState on arbitrary DST2
# snapshots (never a panic; a failed load leaves SaveState unchanged), the
# Dir manifest parser on fields fuzzed past their checksum (typed errors
# only; every accepted shard split opens), OpenFile on arbitrary DPG1 file
# headers (typed errors only; an accepted file keeps its geometry and
# pages), the journal's replay over arbitrary log headers and records
# (typed errors only, no write outside the data region's geometry; an
# accepted log reopens without changing data), the pad kernel (PadInto and
# PadPairInto on both pad paths against crypto/aes), the word-wide HWL
# shifter (against the per-bit rotation reference on every width from 1
# to 1100 bits, plus the inverse round trip), and the wear-leveled device
# (Start-Gap or Security Refresh over a remapped pcmdev.Device against the
# rotated-storage twin, on fuzzed geometry, mode, Psi, move accounting and
# mixed Write/Load/ReadInto sequences), Merkle proof verification (any
# forged sibling, payload or leaf index is rejected), and the integrity
# guard (a fuzzed scheme and op sequence on a guarded device, then one
# stored bit flipped through the backend: the next read of that line
# reports it, and no clean line ever does).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDeuceStep -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDeviceWrite -fuzztime 10s ./internal/pcmdev
	$(GO) test -run '^$$' -fuzz FuzzWriteTracked -fuzztime 10s ./internal/pcmdev
	$(GO) test -run '^$$' -fuzz FuzzRestore -fuzztime 10s ./internal/pcmdev
	$(GO) test -run '^$$' -fuzz FuzzCounterRestore -fuzztime 10s ./internal/ctrstore
	$(GO) test -run '^$$' -fuzz FuzzLoadState -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzParseManifest -fuzztime 10s ./internal/backend
	$(GO) test -run '^$$' -fuzz FuzzFileHeader -fuzztime 10s ./internal/backend
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/backend
	$(GO) test -run '^$$' -fuzz FuzzPad -fuzztime 10s ./internal/otp
	$(GO) test -run '^$$' -fuzz FuzzRotate -fuzztime 10s ./internal/wear
	$(GO) test -run '^$$' -fuzz FuzzRemapTwin -fuzztime 10s ./internal/wear
	$(GO) test -run '^$$' -fuzz FuzzVerifyRejectsForgeries -fuzztime 10s ./internal/integrity
	$(GO) test -run '^$$' -fuzz FuzzGuardTamper -fuzztime 10s ./internal/integrity

# bench-smoke only checks that the hot-write benchmarks still run and stay
# allocation-free; 100 iterations is too few for timing, use bench-writehot
# for numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkWriteHot -benchtime 100x .

# bench-writehot regenerates the numbers behind BENCH_writehot.json.
bench-writehot:
	$(GO) test -run '^$$' -bench BenchmarkWriteHot -benchmem .

# bench-timing regenerates the numbers behind BENCH_timing.json: one cold
# timed perf cell (mcf x deuce at the CI gate scale), with the experiment
# cache reset before every iteration.
bench-timing:
	$(GO) test -run '^$$' -bench BenchmarkTimedCell -benchmem ./internal/exp/

# fidelity runs the paper-fidelity gate at the reduced CI scale: every
# EXPERIMENTS.md headline value is checked against the paper with
# calibrated tolerances (exit non-zero on any violation). The run writes
# the fidelity matrix to fidelity-report.md and records every experiment
# table as typed-cell JSON under fidelity-tables/, which must equal the
# committed golden recording byte for byte: any moved value fails, even
# inside its tolerance. The golden copy is recorded on amd64.
fidelity:
	rm -rf fidelity-tables
	$(GO) run ./cmd/deucereport check -experiment all -writebacks 6000 -lines 512 -out fidelity-report.md -outdir fidelity-tables
	diff -r internal/fidelity/testdata/gate fidelity-tables

# fidelity-record re-records the golden copy, for a change that moves a
# value on purpose; the re-recorded files go into the same diff so review
# sees every moved number.
fidelity-record:
	rm -rf internal/fidelity/testdata/gate
	$(GO) run ./cmd/deucereport check -experiment all -writebacks 6000 -lines 512 -outdir internal/fidelity/testdata/gate
