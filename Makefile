# Tier-1 gate plus the parallel-engine checks. `make fmt-check check` is
# what CI's `check` job runs; `race` exercises the worker pools and
# tensor lane semaphore under the race detector (slow: the fl suite
# retrains real models).

GO ?= go

.PHONY: build test vet lint lint-ci \
	fuzz-smoke \
	fmt-check check check-nolint race race-tensor purego nofma trace-golden loc test-times \
	bench profile-pop profile-sched profile-train profile-churn \
	population-smoke fault-smoke serve-smoke exp-snapshot examples

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fedlint enforces the determinism and allocation-free invariants
# (see DESIGN.md "Determinism & hot-path invariants"): every pass over
# one repo-wide call graph. Non-zero exit on any finding; a deliberate
# exception carries a justified //fedlint:allow at its line.
lint:
	$(GO) run ./cmd/fedlint ./...

# CI flavour of lint: same gate, but findings come out as GitHub Actions
# ::error annotations so they land on the diff view.
lint-ci:
	$(GO) run ./cmd/fedlint -github ./...

# Short native-fuzz pass over every `func Fuzz…` target in the module's
# _test.go files, FUZZTIME each — among them the Fed-LBAP solver against
# the dense oracle and the full-range reference's event stream, the
# sampled selection against a sorted copy, the cohort samplers, the fault
# plan and its spec parser, the trace encoder against encoding/json, the
# pack-free convolution kernels against the im2col oracle, the fused
# Conv2D → ReLU → MaxPool2D backward pass against the layers one by one,
# the job schema's admission path, the run-checkpoint loaders, the device
# simulator's lockstep against the one-loop reference and Fed-MinAvg
# against its step-by-step reference. A new target is fuzzed without an
# edit here; one target alone is
# `go test ./internal/sched -run '^$$' -fuzz '^FuzzFedLBAP$$' -fuzztime 10s`.
# Seeds live under testdata/fuzz (or in the target); CI runs this in the
# lint lane. One failing fuzzer does not hide the others: every target
# runs, and the pass fails at the end with the full list of failed ones.
FUZZTIME ?= 10s
fuzz-smoke:
	@failed=""; \
	for f in $$(grep -rl --include='*_test.go' '^func Fuzz' . | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			$(GO) test $$(dirname $$f) -run '^$$' -fuzz "^$$t\$$" -fuzztime $(FUZZTIME) || failed="$$failed $$t"; \
		done; \
	done; \
	if [ -n "$$failed" ]; then \
		echo "fuzz-smoke: failed targets:$$failed"; exit 1; \
	fi

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Deliberately omits the full `race` target (only the ~35s race-tensor
# pass): the fl race suite retrains real models for minutes, far too
# slow to gate every local pre-push run. CI covers the gap — its `race`
# job runs `make race` on every push in parallel with this gate.
check: build vet lint test race-tensor purego

# The check gate without the lint pass — what CI's `check` job runs now
# that lint has its own cached job (with annotations and the fuzz
# smoke). Local pre-push runs should keep using `make check`.
check-nolint: build vet test race-tensor

# The engines, kernels, layers and daemon, plus the cheap packages the
# round core calls into from its worker pool (samplers, fault draws, schedulers, trace
# rings, device simulators, and the device profiles the daemon's jobs
# share — a few seconds all together). The async engine's event loop is
# part of internal/fl. The root package's BuildJob and ProfileMemo tests
# race the offline-profile memo that concurrent jobs, testbeds and
# population runners share.
race:
	$(GO) test -race ./internal/fl/... ./internal/tensor/... ./internal/nn/... \
		./internal/serve/... ./internal/sample/... ./internal/fault/... \
		./internal/sched/... ./internal/trace/... ./internal/device/... \
		./internal/profile/...
	$(GO) test -race -run 'BuildJob|ProfileMemo' .

# Fast race pass over just the GEMM core and lane semaphore — cheap
# enough (~35s on 2 cores: the suites run once per kernel dispatch state,
# the second time on race-instrumented Go twins) to gate every
# `make check`.
race-tensor:
	$(GO) test -race ./internal/tensor/...

# Asm/twin parity by construction: the purego tag builds without the AVX
# assembly micro-kernels (internal/tensor/gemm_noasm.go), so the kernel
# and layer suites and the golden traces run on the Go twins — the code
# every non-amd64 target and every amd64 host without AVX runs; the arm64
# vet catches anything that only compiles on amd64, and nofma checks the
# twins stay twins where the compiler may fuse.
purego: nofma
	$(GO) test -tags purego ./internal/tensor ./internal/nn
	$(GO) test -tags purego -run 'TestGoldenTrace' .
	GOARCH=arm64 $(GO) vet ./...

# The no-FMA contract. For the Go code: the Go spec lets arm64, ppc64le,
# s390x and riscv64 fuse x*y + z into one rounding unless the product is
# explicitly converted (c += T(a*b)); the kernels' bit-identity with the
# assembly, and of one platform's weights, virtual seconds and joules
# with another's, needs two. Cross-compile everything that feeds a result
# — the root package, internal/ and cmd/; bench/ only does timing
# arithmetic — for arm64, read the compiler's own listing, and fail on
# any fused multiply-add in it. For the assembly, the same way: the amd64
# assembler's own listing of the kernel package (`go tool objdump` cannot
# decode VEX instructions, so a disassembly of the binary would show
# nothing) must carry no VFMADD/VFMSUB/VFNMADD/VFNMSUB — and must carry
# the kernels' VMULP*, or it checked nothing.
nofma:
	@sites="$$(GOARCH=arm64 $(GO) build -gcflags='fedsched/...=-S' . ./internal/... ./cmd/... 2>&1 \
		| grep -E '\bF(NM|M)(ADD|SUB)[SD]\b' \
		| grep -oE '[^ (]+\.go:[0-9]+' | sed 's#^$(CURDIR)/##' | sort -u)"; \
	if [ -n "$$sites" ]; then \
		echo "nofma: the arm64 compiler fuses a multiply-add here (write z + float64(x*y)):"; \
		echo "$$sites"; exit 1; \
	fi
	@listing="$$(GOARCH=amd64 $(GO) build -gcflags='fedsched/...=-S' -asmflags='fedsched/...=-S' ./internal/tensor/... 2>&1)"; \
	if ! echo "$$listing" | grep -qE 'gemm_amd64\.s:[0-9]+\)\s+VMULP[SD]\b'; then \
		echo "nofma: no amd64 micro-kernel in the assembler listing of internal/tensor"; exit 1; \
	fi; \
	fused="$$(echo "$$listing" | grep -E '\bVFN?M(ADD|SUB)')"; \
	if [ -n "$$fused" ]; then \
		echo "nofma: fused multiply-add in the amd64 kernels:"; \
		echo "$$fused"; exit 1; \
	fi

# Size of the tree, for "same behaviour from less code" PRs: non-test Go
# lines, raw and code-only (no blank or comment-only lines), and the
# code-only lines of the _test.go files by the same rule, for the FL
# engines, the tensor kernels, the networks, the schedulers, the serving
# layer, the experiment drivers, fedlint (its passes and its command
# together) and everything outside bench/ (testdata fixtures excluded),
# plus the internal package and binary counts.
# Informational — CI prints it, nothing gates on it.
LOC_FILES = find $(1) -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
	! -path '*/testdata/*' ! -path './.bench_build/*' -print0
LOC_TESTS = find $(1) -name '*_test.go' ! -path './bench/*' \
	! -path '*/testdata/*' ! -path './.bench_build/*' -print0
loc:
	@printf '%-42s %8s %10s %10s\n' 'scope (.go files)' raw code-only test-code
	@for scope in internal/fl internal/tensor internal/nn internal/sched internal/serve internal/experiments 'internal/lint cmd/fedlint' .; do \
		printf '%-42s %8d %10d %10d\n' "$$scope" \
			"$$($(call LOC_FILES,$$scope) | xargs -0 cat | wc -l)" \
			"$$($(call LOC_FILES,$$scope) | xargs -0 cat | grep -vcE '^\s*(//.*)?$$')" \
			"$$($(call LOC_TESTS,$$scope) | xargs -0 cat | grep -vcE '^\s*(//.*)?$$')"; \
	done
	@printf '%-42s %8d\n' 'internal/ packages' \
		"$$(find internal -name '*.go' ! -path '*/testdata/*' -exec dirname {} \; | sort -u | wc -l)"
	@printf '%-42s %8d\n' 'binaries (cmd/*)' "$$(find cmd -mindepth 1 -maxdepth 1 -type d | wc -l)"

# Where the test suite's time goes: `go test -json -p 1` (one package at
# a time, so packages do not slow each other down) over every package,
# then the 25 slowest top-level tests with their package and
# wall seconds, slowest first; a failed test is marked FAIL. Informational
# — CI prints it, nothing gates on it.
test-times:
	@out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	$(GO) test -json -p 1 -count=1 ./... > "$$out"; status=$$?; \
	awk 'function field(k) { return match($$0, "\"" k "\":\"[^\"]*\"") ? substr($$0, RSTART + length(k) + 4, RLENGTH - length(k) - 5) : "" } \
		/"Action":"(pass|fail)"/ && /"Test":/ { \
			test = field("Test"); if (index(test, "/")) next; \
			match($$0, /"Elapsed":[0-9.eE+-]+/); \
			printf "%.2f\t%s\t%s%s\n", substr($$0, RSTART + 10, RLENGTH - 10), field("Package"), test, /"Action":"fail"/ ? " FAIL" : "" \
		}' "$$out" | sort -t "$$(printf '\t')" -k1,1 -g -r | head -n 25 | \
	awk -F '\t' 'BEGIN { printf "%9s  %-34s %s\n", "seconds", "package", "test" } { printf "%9s  %-34s %s\n", $$1, $$2, $$3 }'; \
	[ $$status -eq 0 ] || echo "test-times: go test exited $$status (failed tests are marked FAIL)"

# Run every examples/* program — the library's callers — and fail if any
# exits non-zero (each one's output is printed). About 6 s on 2 cores.
examples:
	@bin="$$(mktemp -d)"; trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/" ./examples/... || exit 1; \
	failed=""; \
	for ex in "$$bin"/*; do \
		echo "== examples/$${ex##*/}"; \
		"$$ex" || failed="$$failed $${ex##*/}"; \
	done; \
	if [ -n "$$failed" ]; then \
		echo "examples: non-zero exit from:$$failed"; exit 1; \
	fi

# Every experiment's quick report and round trace, for proving that a
# driver change moves nothing: for each id in `fedsim -list`, OUT/<id>.txt
# is the stdout of `-exp <id> -quick` and OUT/<id>.jsonl its `-trace`.
# Take one snapshot per tree and `diff -r` them. The only columns that may
# differ are wall clocks: ext-precision `f64 [ms]`, `f32 [ms]` and
# `speedup`, ext-secagg `wall time [ms]`, ext-granularity `schedule time
# [ms]`. A run whose trace ring overflowed (its `.jsonl` would hold only
# the newest events) fails the target. About a minute on 2 cores.
exp-snapshot:
	@test -n "$(OUT)" || { echo "usage: make exp-snapshot OUT=<dir>"; exit 2; }
	mkdir -p $(OUT)
	bin="$$(mktemp -d)"; trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/fedsim" ./cmd/fedsim && \
	for id in $$("$$bin/fedsim" -list | tail -n +2); do \
		"$$bin/fedsim" -exp $$id -quick -trace $(OUT)/$$id.jsonl -trace-cap 4000000 \
			> $(OUT)/$$id.txt 2> "$$bin/stderr"; status=$$?; \
		cat "$$bin/stderr" >&2; \
		[ $$status -eq 0 ] || exit 1; \
		if grep -q '^trace: ring overflowed' "$$bin/stderr"; then \
			echo "exp-snapshot: $$id: trace truncated; raise -trace-cap" >&2; exit 1; \
		fi; \
	done

# Regenerate the golden round traces under testdata/trace after an
# intentional behaviour change, then review the diff before committing
# (see README "Round traces & goldens").
trace-golden:
	$(GO) test -run 'TestGoldenTrace' . -args -update-golden

# 1× smoke of every `go test -bench` benchmark: they must keep running.
# Performance is measured and gated end to end by `go run ./bench`
# (BENCHMARK.json).
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem . ./internal/...

# Where pop_scale's time goes: CPU-profile BenchmarkPopulationRun — one
# fedsim run at the benchmark's settings (10^6 clients, faults,
# over-selection, quorum, cooldown, 1,000 rounds, traced, JSONL export)
# through SimulatePopulationRounds — and print the cumulative top of the
# profile. Both halves of a step run under the fan-out task
# fl.SimulatePopulationRounds.func1: the planner's rows (the sampler
# draw, sched.FedLBAP.Schedule) under fl.(*PopulationRunner).plan, the
# player's (device.TrainLockstep, Device.advance) under
# fl.(*PopulationRunner).play. The profile and test binary stay under
# artifacts/ for `go tool pprof -list`.
profile-pop:
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench 'BenchmarkPopulationRun$$' -benchtime=5x -benchmem \
		-cpuprofile artifacts/pop.prof -o artifacts/pop.test .
	$(GO) tool pprof -top -cum artifacts/pop.test artifacts/pop.prof | head -40

# Where a fleet-scale Fed-LBAP solve's time goes — the solver's twin of
# profile-pop: CPU-profile 200 solves over 10^6 users × 10^4 shards
# (BenchmarkFedLBAPFleet, the instance pop_scale times) and print the
# cumulative top. The benchmark builds the fleet once, and 200 solves
# drown it: fedsched_test.populationRequest was 2.6–3.5 % of the samples
# in two profiles on a 2-vCPU Xeon (18 % at 20 solves). Read the probe
# rows (survivor.kmax, survivor.at) and the one O(n) pass, sched.(*firstChunk).price under tensor.pull, which
# prices every user and gathers the ~2 % below the sampled pivot; it
# splits between the caller (tensor.FanOut) and its spawned worker
# (tensor.FanOut.func1). sched.prune's own rows are the selection over
# what was gathered; runtime.gcBgMarkWorker competes with the worker for
# the second lane. The profile and test binary stay under artifacts/ for
# `go tool pprof -list`.
profile-sched:
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench 'BenchmarkFedLBAPFleet/n=1000000' -benchtime=200x -benchmem \
		-cpuprofile artifacts/sched.prof -o artifacts/sched.test .
	$(GO) tool pprof -top -cum artifacts/sched.test artifacts/sched.prof | head -40

# Where a train step's time goes — the train-step twin of profile-pop:
# CPU-profile the serial FL run (LeNet-S clients, what the benchmark's
# training workloads execute) and the bare LeNet-S train step at batch 20
# (train_heavy's shape) and batch 5 (round_churn's), and print the
# cumulative top of each. Profiles and test binaries stay under
# artifacts/ for `go tool pprof -list`.
profile-train:
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench 'BenchmarkRunSerial$$' -benchtime=10x \
		-cpuprofile artifacts/train_run.prof -o artifacts/train_run.test .
	$(GO) tool pprof -top -cum artifacts/train_run.test artifacts/train_run.prof | head -50
	$(GO) test -run '^$$' -bench 'BenchmarkLeNetSmallTrainBatch$$' -benchtime=2000x \
		-cpuprofile artifacts/train_step.prof -o artifacts/train_step.test ./internal/nn/
	$(GO) tool pprof -top -cum artifacts/train_step.test artifacts/train_step.prof | head -50
	$(GO) test -run '^$$' -bench 'BenchmarkLeNetSmallTrainBatch5$$' -benchtime=8000x \
		-cpuprofile artifacts/train_step5.prof -o artifacts/train_step.test ./internal/nn/
	$(GO) tool pprof -top -cum artifacts/train_step.test artifacts/train_step5.prof | head -50

# Where a short round's fixed cost goes — the per-round twin of the two
# above: CPU-profile two concurrent round_churn jobs (400 rounds of one
# 5-sample batch per client) through an in-process serve.Server, polled
# like the benchmark polls, and print the cumulative top. Read the
# persistence share off the fl.Run row against the serve.(*Server).runJob
# sink closure and fl.buildCheckpoint rows.
profile-churn:
	mkdir -p artifacts
	$(GO) test -run '^$$' -bench 'BenchmarkServeChurn$$' -benchtime=10x \
		-cpuprofile artifacts/churn.prof -o artifacts/churn.test ./internal/serve/
	$(GO) tool pprof -top -cum artifacts/churn.test artifacts/churn.prof | head -60

# 100K-client fixed-seed population smoke: build, solve and trace one
# scheduling round over a fleet three orders of magnitude past the
# testbed. CI runs this in the bench job and uploads the trace artifact;
# the run is deterministic, so the trace doubles as a debugging golden.
population-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/fedsim -population 100000 -cohort 64 -pop-rounds 1 \
		-seed 42 -trace artifacts/population-smoke.jsonl

# The same 100K-client fleet under an aggressive fixed-seed fault plan:
# over-selection absorbs the crashes, the quorum closes the round, the
# cooldown benches repeat offenders, and -min-participants keeps a
# decimated round from aborting the run. Deterministic end to end; CI
# runs it in the check job and uploads the trace (KindFault events,
# faulted/late flags) as an artifact.
fault-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/fedsim -population 100000 -cohort 64 -pop-rounds 2 \
		-seed 42 -fault-seed 7 \
		-faults 'crash=0.2,battery=0.05,flap=0.1,corrupt=0.05,degrade=0.3,slow=4' \
		-overselect 0.5 -min-participants 32 -cooldown 2 \
		-trace artifacts/fault-smoke.jsonl

# End-to-end serving smoke: TestKillResume re-executes its own test
# binary as the real fedserve, runs a fixed-seed sync/async/gossip mix
# over loopback, then repeats it with a SIGKILL while the sync job is
# mid-run and a restart over the same state directory, asserting the
# resumed jobs' traces and round histories are byte-identical to the
# uninterrupted run. A failed run keeps its state directories under
# $$TMPDIR (the test logs the path). CI runs it in the serve job.
serve-smoke:
	$(GO) test ./cmd/fedserve -run TestKillResume -count=1 -v
