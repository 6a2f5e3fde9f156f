# Developer entry points. `make check` is the gate for every change:
# build, lint (gofmt + vet + staticcheck), the five examples run to
# completion, the full test suite under the race detector (plus the
# bench/gwbench module's own tests), and a bench smoke run that validates
# fbsbench's JSON contract end to end.
#
# CI runs the ci-* targets as five parallel jobs (see
# .github/workflows/ci.yml); `make ci` runs the same five sequentially
# so a local run reproduces a CI verdict bit for bit.

GO ?= go
GOFMT ?= gofmt
# FUZZTIME is per fuzz target; CI runs nine targets, so the default
# keeps the whole fuzz-smoke step to ~135 s.
FUZZTIME ?= 15s
# Pinned staticcheck build: `go run` fetches and caches it, so the
# toolchain — not PATH — decides the version CI lints with.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2024.1.1

.PHONY: all build lint staticcheck loc test check bench experiments examples bench-smoke fuzz-smoke chaos flood diff gwbench-test gwbench-smoke \
	ci ci-lint ci-race ci-fuzz ci-soak ci-bench nightly

all: check

build:
	$(GO) build ./...

# lint fails if any file needs reformatting (gofmt -l prints it), runs
# go vet, and runs the pinned staticcheck.
lint:
	@fmtout=$$($(GOFMT) -l .); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi
	$(GO) vet ./...
	@$(MAKE) --no-print-directory staticcheck

# staticcheck runs the pinned tool via `go run`, which needs either a
# warm module cache or network to fetch it. Offline (the common air-gapped
# dev-container case) the fetch fails with a module/DNS error rather than
# findings; that case is reported and skipped so lint stays usable
# without network, while real findings still fail.
staticcheck:
	@out=$$($(GO) run $(STATICCHECK) ./... 2>&1); status=$$?; \
	if [ $$status -eq 0 ]; then \
		echo "staticcheck ok"; \
	elif echo "$$out" | grep -qiE 'no required module provides|cannot find module|cannot query module|missing go.sum entry|i/o timeout|connection refused|no such host|dial tcp|TLS handshake|proxyconnect|unrecognized import path'; then \
		echo "staticcheck skipped: tool unavailable offline"; \
	else \
		echo "$$out"; exit $$status; \
	fi

# loc prints non-test Go lines for the packages ROADMAP aim 2 keeps
# score on ("report net lines; internal/core ends smaller"; the in-memory
# network lives in internal/transport, its adversary and harnesses in
# internal/netsim), for the six CLIs, and for the whole tree, so the figure a PR reports is one the
# job log shows. Assembly has its own row: hand-written .s lines are
# counted, not hidden in (or from) the Go total. The totals count the
# working tree: files on disk, tracked or untracked-but-not-ignored, so a
# count taken before a commit sees new files and skips deleted ones.
ON_DISK = git ls-files -co --exclude-standard -z $(1) | xargs -0 -r sh -c 'for f; do [ ! -f "$$f" ] || cat "$$f"; done' sh
loc:
	@for d in internal/core internal/obs internal/gateway internal/transport internal/netsim internal/cryptolib internal/refmodel cmd; do \
		printf '%-18s %6d\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	done; \
	printf '%-18s %6d\n' total $$($(call ON_DISK,'*.go' ':!:*_test.go') | wc -l); \
	printf '%-18s %6d\n' 'assembly (.s)' $$($(call ON_DISK,'*.s') | wc -l)

test:
	$(GO) test ./...

# examples runs the five README walk-throughs, each to completion under
# a 60 s timeout, and fails on the first non-zero exit: `go build ./...`
# compiles them and nothing else executes them, so this is where a
# walk-through that rotted fails. It is also what makes examples/ count
# as a reader under TestEveryExportHasAReader.
examples:
	@for e in quickstart securecopy whiteboard ipmapping attacks; do \
		echo "== examples/$$e"; \
		timeout 60 $(GO) run ./examples/$$e >/dev/null || { echo "examples/$$e failed" >&2; exit 1; }; \
	done

# bench-smoke runs one small fbsbench iteration and validates the JSON
# shape with fbsstat, so scripted consumers of `fbsbench -json` find out
# here rather than in their dashboards.
bench-smoke:
	$(GO) run ./cmd/fbsbench -bytes 65536 -native -json | $(GO) run ./cmd/fbsstat bench-validate

# fuzz-smoke gives each fuzz target (the core decoders, the receive walk's
# verdict before keying against the walk itself, the differential
# harness, the ChaCha20 keystream kernel against its Go oracle, the
# Montgomery kernel against big.Int.Exp, the UDP receive splitter over
# attacker-shaped GRO messages, the gateway config parser against what a
# swap builds) a short
# budget on top of the checked-in corpus — enough to catch regressions
# without turning the gate into a campaign. Targets run one at a time
# because `go test -fuzz` accepts a single target per invocation.
fuzz-smoke:
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzHeaderDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzOpen$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzCookie$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzDecide$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/netsim -run='^$$' -fuzz='^FuzzDifferential$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cryptolib -run='^$$' -fuzz='^FuzzChaCha20Poly1305$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cryptolib -run='^$$' -fuzz='^FuzzModExp$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/transport -run='^$$' -fuzz='^FuzzUDPFrames$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/gateway -run='^$$' -fuzz='^FuzzGatewayConfig$$' -fuzztime=$(FUZZTIME)

# diff soaks the differential harness: seeded op streams cross-validated
# between the optimised endpoint and the naive reference model
# (internal/refmodel), with and without the replay cache. DIFF_OPS
# scales the stream length; a divergence writes its op stream and both
# transcripts to FBS_DIFF_ARTIFACT_DIR when set.
DIFF_OPS ?= 20000
diff:
	$(GO) run ./cmd/fbschaos -diff -ops $(DIFF_OPS)

# chaos runs the standing fault-injection matrix (see docs/ROBUSTNESS.md)
# and fails unless every scenario reconciles exactly. Raise -iterations
# for a longer soak.
chaos:
	$(GO) run ./cmd/fbschaos

# flood soaks the overload matrix: flow-churn and spoofed-source keying
# floods against a budgeted receiver, the edge pre-filter scenarios
# (sketch shedding, cookie challenge, adaptive ladder), plus
# crash-restart recovery and gateway reconfiguration under load, each
# iteration on a fresh seed block. The serialised reports pipe through
# `fbsstat bench-validate`, which re-derives the pre-parse-shed floor
# and the first-contact fairness floor from each report rather than
# trusting the harness's own verdict.
# FLOOD_ITERATIONS scales the soak.
FLOOD_ITERATIONS ?= 5
flood:
	$(GO) run ./cmd/fbschaos -flood -prefilter -crash -reconfig -iterations $(FLOOD_ITERATIONS) -json | $(GO) run ./cmd/fbsstat bench-validate

# gwbench-test vets and tests the end-to-end benchmark. bench/gwbench is
# its own module (the benchmark contract wants it self-contained), so
# `go build ./... && go test ./...` at the root never compiles it; this
# is the gate where a core or gateway signature change that breaks the
# benchmark fails, rather than in the benchmark driver.
gwbench-test:
	cd bench/gwbench && $(GO) vet ./... && $(GO) test ./...

# gwbench-smoke boots the real daemon and drives five seconds of
# verified window-32 echoes at it, untraced, once on the hit path
# (small_echo) and once on peer_churn (256 peers, a fresh flow per
# visit): the result object on the last line must say the ledger
# reconciled and every echo came back, so a ledger, echo or keying break
# in fbsgw fails here and not in the benchmark driver. peer_churn's
# keying coverage is its cold pass, 256 first contacts per session; its
# measured phase misses the RFKC but hits the MKC, since the key plane
# (2 shards × 512 slots) holds every peer. The eviction and miss paths
# stay covered in-repo by TestManyPeersTinyCaches (4-slot caches swapped
# in) and BenchmarkKeyingMiss (FlushPeer before each miss). It gates
# correctness only; its timings are not compared.
gwbench-smoke:
	@for w in small_echo peer_churn; do \
		last=$$(bash bench/gwbench/run.sh --workload $$w --seconds 5 --trace 0 | tail -n 1); \
		echo "$$last"; \
		echo "$$last" | grep -Eq '"correct": ?true' && echo "$$last" | grep -Eq '"failed": ?0[,}]' || \
			{ echo "gwbench-smoke: $$w: last line does not carry \"correct\": true and \"failed\": 0" >&2; exit 1; }; \
	done

# ci-race is the whole suite under the race detector and ends with
# gwbench-test.
check: build lint examples ci-race bench-smoke fuzz-smoke diff

# The ci-* targets are the five parallel CI jobs. Each is self-contained
# (its own build graph comes from the shared Go build cache), so the
# workflow fans them out and a local `make ci` runs them back to back.

# The arm64 cross-build and vet (offline, ~30 s cold) are what compile
# the !amd64 file set — cryptolib's no-kernel stubs, and the transport's
# raw msghdr/cmsg layouts under arm64's syscall numbers — so it cannot
# rot unseen; go vet's asmdecl pass, part of lint, holds chacha_amd64.s
# and mont_amd64.s to their Go declarations.
ci-lint: build lint examples loc
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/cryptolib ./internal/transport

ci-race:
	FBS_DIFF_ARTIFACT_DIR=diff-artifacts FBS_TRACE_ARTIFACT_DIR=trace-artifacts $(GO) test -race -coverprofile=coverage.out ./...
	@$(MAKE) --no-print-directory gwbench-test

ci-fuzz: fuzz-smoke

# The chaos + differential soak: seeded op streams against the reference
# model, the traced fault-injection matrix (a scenario that fails
# reconciliation dumps its per-datagram trace report to trace-artifacts/
# for the workflow to upload; render with `fbsstat trace -f <file>`),
# and the overload matrix (including the edge pre-filter scenarios).
# BENCH_overload.json (JSON lines) pairs a short unattacked fbsbench
# baseline with one report per overload/crash/reconfig scenario, so a
# regression in goodput-under-flood, budget accounting or swap cost is
# visible from the uploaded artifact alone; bench-validate then gates
# the artifact, re-asserting each flood report's pre-parse-shed and
# first-contact fairness floors.
# The constant-time leak tests (dudect; they skip under -race and -short,
# so ci-race never runs them) take about 10 s here; the Figure 8
# composition check (TestFigure8Composes, a timing check that -race
# builds leave out and -short skips) about 3 s.
ci-soak:
	$(GO) test -run 'ConstantTime' -count=1 ./internal/cryptolib ./internal/core
	$(GO) test -run '^TestFigure8Composes$$' -count=1 .
	FBS_DIFF_ARTIFACT_DIR=diff-artifacts $(MAKE) diff
	FBS_TRACE_ARTIFACT_DIR=trace-artifacts $(GO) run ./cmd/fbschaos -trace
	$(GO) run ./cmd/fbsbench -bytes 16384 -native -json > BENCH_overload.json
	$(GO) run ./cmd/fbschaos -flood -prefilter -crash -reconfig -json >> BENCH_overload.json
	$(GO) run ./cmd/fbsstat bench-validate < BENCH_overload.json

# The bench matrix + trajectory gate. Every document gated here is
# measured by this run, from the commit under test:
#   fbsbench.json       fresh native run, shape-validated.
#   BENCH_suites.json   per-suite matrix; bench-validate enforces
#                       completeness and the AES-128-GCM >= 5x
#                       DES-CBC/keyed-MD5 claim.
# bench-compare then gates both against the committed trajectory's
# series for this runner's fingerprint (>20% throughput drop, or a
# doubled seal p99 on rows with >= 1000 seal timings, fails CI; so does
# a runner with no series) and appends passing
# runs so the baseline tracks the codebase. One iteration of the
# keying-miss, master-key, RSA-1024 and provisioning benchmarks keeps
# their rows, kernel and portable, from rotting (they key on Oakley 2,
# which no test does), one of
# BenchmarkRunOfOne executes its
# per-row allocation assertions (the single doors at 0 allocs/op), one
# of BenchmarkUDPLoopbackBatch asserts the socket layer's one allocation
# per batch (32 frames out through sendmmsg + GSO, in through
# recvmmsg + GRO), one of BenchmarkCryptoLibTable runs the §7.2 table and
# asserts its ChaCha20-Poly1305 rows at 0 allocs/op, one of
# BenchmarkRefusal keeps its per-DropReason rows running, one of
# BenchmarkGatewayDispatch asserts the gateway loop's accepted batch at
# 0 allocs/op and keeps its refused and one-datagram rows running, and
# gwbench-smoke (above) then checks the real daemon end to end — the
# batched socket plane included.
ci-bench:
	$(GO) run ./cmd/fbsbench -bytes 65536 -native -json | tee fbsbench.json | $(GO) run ./cmd/fbsstat bench-validate
	$(GO) run ./cmd/fbsbench -suites -json | tee BENCH_suites.json | $(GO) run ./cmd/fbsstat bench-validate
	$(GO) run ./cmd/fbsstat bench-compare -append < fbsbench.json
	$(GO) run ./cmd/fbsstat bench-compare -append < BENCH_suites.json
	$(GO) test -run '^$$' -bench 'KeyingMiss|MasterKeyComputation|RSA1024|RunOfOne|Provision|UDPLoopbackBatch|CryptoLibTable|Refusal|GatewayDispatch' -benchtime 1x . ./internal/core ./internal/transport ./internal/cryptolib ./internal/gateway
	@$(MAKE) --no-print-directory gwbench-smoke

# ci runs the same five jobs sequentially: a local `make ci` reproduces
# the CI verdict bit for bit.
ci: ci-lint ci-race ci-fuzz ci-soak ci-bench

# nightly is the scheduled soak (.github/workflows/nightly.yml): the
# constant-time leak tests, the Figure 8 composition check, chaos,
# differential, flood, and fuzz budgets at 10x their CI sizes. The swap
# stress (reconfiguration under load, and the gateway's swap and ledger
# tests under the race detector) puts the epoch pin's increment-then-
# recheck through many swap interleavings. The key-plane stress runs
# the concurrent-miss, coalescing, MKD, key-plane and batch-keys-as-a-
# loop tests ten times under the race detector: concurrent misses on one
# flow each derive their flow key, so only the MKD's per-peer flight
# stands between them.
nightly:
	$(GO) test -run 'ConstantTime' -count=10 ./internal/cryptolib ./internal/core
	$(GO) test -run '^TestFigure8Composes$$' -count=10 .
	FBS_TRACE_ARTIFACT_DIR=trace-artifacts $(GO) run ./cmd/fbschaos -trace -iterations 10
	$(GO) run ./cmd/fbschaos -reconfig -iterations 10
	$(GO) test -race -count=10 -run 'Swap|Ledger' ./internal/gateway
	$(GO) test -race -count=10 -run 'Concurrent|Coalesc|MKD|KeyPlane|OpenBatchKeys' ./internal/core
	FBS_DIFF_ARTIFACT_DIR=diff-artifacts $(MAKE) diff DIFF_OPS=200000
	$(MAKE) flood FLOOD_ITERATIONS=50
	$(MAKE) fuzz-smoke FUZZTIME=150s

bench:
	$(GO) test -bench=. -benchmem .

# experiments regenerates every table and figure of the paper's
# evaluation, plus the ablations, into ./results/ (see EXPERIMENTS.md).
# The §7.2 CryptoLib table (BenchmarkCryptoLibTable) and the full-stack
# Figure 8 run (BenchmarkFigure8FullStack) are part of `bench`.
experiments:
	mkdir -p results
	$(GO) run ./cmd/fbsbench -native | tee results/figure8.txt
	$(GO) run ./cmd/flowsim -fig all | tee results/figures9-14.txt
	@$(MAKE) --no-print-directory bench | tee results/bench.txt
