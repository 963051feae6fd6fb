# Repo-local CI entry points (mirrors .github/workflows/ci.yml).

CARGO ?= cargo

# Every bench target, read off crates/bench/Cargo.toml so the list cannot
# drift when benches are added or renamed; bench-smoke fails if any of them
# stops emitting its BENCH_<name>.json timing file (the perf-trajectory
# pipeline reads these).
BENCH_TARGETS := $(shell sed -n 's/^name = "\([a-z0-9_]*\)"$$/\1/p' \
                 crates/bench/Cargo.toml | grep -v '^dxml')

.PHONY: all build test clippy doc bench bench-smoke bench-baselines bench-compare fuzz-smoke soak perfbench-test examples lint-schemas lint-repo verify

all: verify

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

# Denies all default lints, plus a curated subset of pedantic lints the
# codebase holds itself to (warn level, escalated by -D warnings).
clippy:
	$(CARGO) clippy --all-targets -- -D warnings \
		-W clippy::semicolon_if_nothing_returned \
		-W clippy::explicit_iter_loop \
		-W clippy::redundant_closure_for_method_calls \
		-W clippy::map_unwrap_or \
		-W clippy::missing_panics_doc

# API docs must build cleanly: broken intra-doc links and missing docs are
# errors.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps -q

# Compile every bench target and the end-to-end benchmark package, which
# sits outside the workspace: tier-1 never builds it, so an engine API
# change that breaks it would otherwise go unnoticed until benchmark time.
bench:
	$(CARGO) check --benches
	$(CARGO) check --offline --manifest-path perfbench/Cargo.toml

# Run every bench target once (release profile): exercises the real bench
# code paths and their assertions, and emits machine-readable
# BENCH_<name>.json timing files (DXML_BENCH_DIR overrides the destination)
# plus TELEMETRY_<name>.json engine-counter sidecars (collection is enabled
# here — smoke mode measures nothing, so the gate costs nothing). Fails when
# a bench target stops emitting either file.
bench-smoke:
	@test -n "$(BENCH_TARGETS)" || { \
		echo "bench-smoke: no bench targets found in crates/bench/Cargo.toml" >&2; exit 1; }
	@rm -f $(foreach b,$(BENCH_TARGETS),"$(CURDIR)/BENCH_$(b).json" "$(CURDIR)/TELEMETRY_$(b).json")
	DXML_BENCH_SMOKE=1 DXML_TELEMETRY=1 DXML_BENCH_DIR=$(CURDIR) $(CARGO) bench -q
	@for b in $(BENCH_TARGETS); do \
		test -f "$(CURDIR)/BENCH_$$b.json" || { \
			echo "bench-smoke: BENCH_$$b.json was not emitted" >&2; exit 1; }; \
		test -f "$(CURDIR)/TELEMETRY_$$b.json" || { \
			echo "bench-smoke: TELEMETRY_$$b.json was not emitted" >&2; exit 1; }; \
		for m in limits.budget_trips limits.deadline_trips limits.cancellations; do \
			grep -q "\"$$m\"" "$(CURDIR)/TELEMETRY_$$b.json" || { \
				echo "bench-smoke: TELEMETRY_$$b.json is missing the $$m counter" >&2; exit 1; }; \
		done; \
	done
	@echo "bench-smoke: all $(words $(BENCH_TARGETS)) timing files and telemetry sidecars emitted"

# Where the committed perf baselines live (full non-smoke runs; refresh
# with `make bench-baselines` on the reference machine and commit).
BASELINE_DIR := baselines

# One full (non-smoke) pass regenerates every target's baseline; stale
# files are removed first so the emission check below makes a silently
# skipped target a hard error instead of a re-committed stale baseline.
bench-baselines:
	@test -n "$(BENCH_TARGETS)" || { \
		echo "bench-baselines: no bench targets found in crates/bench/Cargo.toml" >&2; exit 1; }
	@mkdir -p $(BASELINE_DIR)
	@rm -f $(foreach b,$(BENCH_TARGETS),"$(BASELINE_DIR)/BENCH_$(b).json")
	DXML_BENCH_DIR=$(CURDIR)/$(BASELINE_DIR) $(CARGO) bench -q
	@rm -f $(BASELINE_DIR)/TELEMETRY_*.json
	@for b in $(BENCH_TARGETS); do \
		test -f "$(BASELINE_DIR)/BENCH_$$b.json" || { \
			echo "bench-baselines: BENCH_$$b.json was not regenerated" >&2; exit 1; }; \
	done
	@echo "bench-baselines: refreshed all $(words $(BENCH_TARGETS)) baselines in $(BASELINE_DIR)/ — review and commit"

# Re-run every bench target (full timing mode) and diff the fresh
# BENCH_<name>.json files against the committed baselines: any warm-path
# median more than BENCH_COMPARE_THRESHOLD x its baseline fails the build.
# The threshold is absolute-time based, so baselines and the comparing
# machine must be in the same speed class; override the threshold (or
# refresh the baselines from the CI runner's artifacts) when they are not.
BENCH_COMPARE_THRESHOLD ?= 2

bench-compare:
	@test -d $(BASELINE_DIR) || { \
		echo "bench-compare: no $(BASELINE_DIR)/ directory; run make bench-baselines first" >&2; exit 1; }
	@rm -rf target/bench-current && mkdir -p target/bench-current
	DXML_BENCH_DIR=$(CURDIR)/target/bench-current $(CARGO) bench -q
	$(CARGO) run -q --release -p dxml-bench --bin bench_compare -- \
		$(BASELINE_DIR) target/bench-current $(BENCH_COMPARE_THRESHOLD)

# Timeout-wrapped fault-injection suite: the governance tests drive budget
# trips, expired deadlines, cooperative cancellations and injected worker
# panics end to end against adversarial (exponential) inputs. The timeout
# turns a hung governed loop — the exact failure mode budgets exist to
# prevent — into a hard failure instead of a stuck CI job. The tree
# inclusion differential rides along: a pair fixpoint that fails to
# terminate fails here instead of hanging the test job. So does the
# wide-kernel scaling test: a kernel node with thousands of children must
# stay linear on the extension automaton and the kernel pass, in release
# as in debug, and so does the nondeterministic-gap scaling test: a
# suffix-counting gap must be decided under a fixed step quota, so a pair
# search that went exponential again trips it. The SAX fuzz suite and the streaming differential run here
# in release too, so the byte-level element-name scanner's UTF-8
# boundaries and the validator's name table get optimised-code coverage.
FUZZ_SMOKE_TIMEOUT ?= 300

fuzz-smoke:
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-automata --test budget_loops
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-core --test governance
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-bench --test cost_calibration
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-tree --test inclusion_differential
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-analysis --test wide_kernel_scaling
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-analysis --test nondeterministic_gap_scaling
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-tree --test sax_fuzz
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-schema --test stream_differential
	@echo "fuzz-smoke: governance fault suite, wide-kernel and nondeterministic-gap scaling, SAX fuzz and streaming differential tests passed within $(FUZZ_SMOKE_TIMEOUT)s per binary"

# Seeded soak of the one decision procedure against its oracle: the ignored
# sibling of the tier-1 corpus differential sweeps 2000 seeds of random
# EDTD designs and design-workload variants, checking typecheck,
# verify_local and perfect-schema confirmation against the tree route
# (extension automaton included in the cached target), counterexamples
# against the plain validator, and budget trips against recovery. A failure
# prints its seed; replay one with DXML_SOAK_SEED=<seed>. The timeout turns
# a hung pass into a hard failure.
soak:
	timeout 600 $(CARGO) test -q --release -p dxml-bench --test oracle_differential -- --ignored --nocapture
	@echo "soak: passed within 600s"

# The end-to-end benchmark package (declared by BENCHMARK.json) is its own
# workspace and calls the engine's public API by path; neither `make test`
# nor `make build` compiles it. Its known-answer self-tests pin the
# workloads' verdicts, so an engine API or behaviour change that breaks the
# benchmark fails here instead of at benchmark time.
perfbench-test:
	$(CARGO) test --release --offline --manifest-path perfbench/Cargo.toml

# The narrative examples, each diffed against its golden stdout in
# examples/expected/<name>.txt: any change to a verdict, witness or size
# the examples print fails here. An intended change regenerates the golden
# (`cargo run -q --release --example <name> > examples/expected/<name>.txt`)
# so the diff shows in review. The two lint examples run through
# lint-schemas and lint-repo instead.
EXAMPLES := quickstart distributed_validation perfect_typing_words \
            eurostat_ncpi perfect_schema box_design streaming_validation

examples:
	$(CARGO) build -q --release --examples
	@out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	for e in $(EXAMPLES); do \
		$(CARGO) run -q --release --example $$e > $$out/$$e.txt || { \
			echo "examples: $$e exited non-zero" >&2; exit 1; }; \
		diff -u examples/expected/$$e.txt $$out/$$e.txt || { \
			echo "examples: $$e output differs from examples/expected/$$e.txt" >&2; exit 1; }; \
	done
	@echo "examples: all $(words $(EXAMPLES)) outputs match their goldens"

# Lint the example/bench schema corpus: exits non-zero on any
# error-severity diagnostic from the dxml-analysis passes. --costs appends
# the static cost-analysis summary for the corpus designs. The text report
# is diffed against its golden, examples/expected/schema_lint.txt, so any
# change to a diagnostic or its suggested schema fails here (an intended
# change regenerates the golden with
# `cargo run -q --release --example schema_lint -- --costs > examples/expected/schema_lint.txt`).
# The second run drives the JSON report, whose costs array is spliced into
# the findings.
lint-schemas:
	@out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	$(CARGO) run -q --release --example schema_lint -- --costs > $$out/schema_lint.txt || { \
		cat $$out/schema_lint.txt; echo "lint-schemas: schema_lint exited non-zero" >&2; exit 1; }; \
	diff -u examples/expected/schema_lint.txt $$out/schema_lint.txt || { \
		echo "lint-schemas: schema_lint output differs from examples/expected/schema_lint.txt" >&2; exit 1; }
	$(CARGO) run -q --release --example schema_lint -- --json --costs
	@echo "lint-schemas: no error-severity finding; the text report matches its golden"

# Lint the repo's structural conventions (telemetry metrics wired, bench
# targets baseline-gated and documented, every *_with_budget the governed
# half of a plain/governed pair while one-entry procedures take &Budget,
# forbid unsafe): exits non-zero on any violation.
lint-repo:
	$(CARGO) run -q --release --example repo_invariants

# The tier-1 gate plus lints, docs, bench compilation, the repo-invariant
# lint (so a retired counter that gets recorded again fails locally too),
# the example goldens (they pin the determinised targets' subset numbering)
# and the schema lint with its golden report.
verify: build test clippy doc bench lint-repo examples lint-schemas
	@echo "verify: OK"
