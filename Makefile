# Repo-local CI entry points (mirrors .github/workflows/ci.yml).

CARGO ?= cargo

# Every bench target, read off crates/bench/Cargo.toml so the list cannot
# drift when benches are added or renamed; bench-smoke fails if any of them
# stops emitting its BENCH_<name>.json timing file (the perf-trajectory
# pipeline reads these).
BENCH_TARGETS := $(shell sed -n 's/^name = "\([a-z0-9_]*\)"$$/\1/p' \
                 crates/bench/Cargo.toml | grep -v '^dxml')

.PHONY: all build test clippy doc fmt-check bench bench-smoke bench-baselines bench-compare fuzz-smoke perfbench-test examples lint-schemas lint-repo verify

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
# terminate fails here instead of hanging the test job.
FUZZ_SMOKE_TIMEOUT ?= 300

fuzz-smoke:
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-automata --test budget_loops
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-core --test governance
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-bench --test cost_calibration
	timeout $(FUZZ_SMOKE_TIMEOUT) $(CARGO) test -q --release -p dxml-tree --test inclusion_differential
	@echo "fuzz-smoke: governance fault suite passed within $(FUZZ_SMOKE_TIMEOUT)s per binary"

# The end-to-end benchmark package (declared by BENCHMARK.json) is its own
# workspace and calls the engine's public API by path; neither `make test`
# nor `make build` compiles it. Its known-answer self-tests pin the
# workloads' verdicts, so an engine API or behaviour change that breaks the
# benchmark fails here instead of at benchmark time.
perfbench-test:
	$(CARGO) test --release --offline --manifest-path perfbench/Cargo.toml

# The narrative examples. The two lint examples run through lint-schemas
# and lint-repo instead.
examples:
	$(CARGO) run -q --release --example quickstart
	$(CARGO) run -q --release --example distributed_validation
	$(CARGO) run -q --release --example perfect_typing_words
	$(CARGO) run -q --release --example eurostat_ncpi
	$(CARGO) run -q --release --example perfect_schema
	$(CARGO) run -q --release --example box_design
	$(CARGO) run -q --release --example streaming_validation

# Lint the example/bench schema corpus: exits non-zero on any
# error-severity diagnostic from the dxml-analysis passes. --costs appends
# the static cost-analysis summary for the corpus designs.
lint-schemas:
	$(CARGO) run -q --release --example schema_lint -- --costs

# Lint the repo's structural conventions (telemetry metrics wired, bench
# targets baseline-gated and documented, *_with_budget twins, forbid
# unsafe): exits non-zero on any violation.
lint-repo:
	$(CARGO) run -q --release --example repo_invariants

# The tier-1 gate plus lints, docs, bench compilation and the repo-invariant
# lint (so a retired counter that gets recorded again fails locally too).
verify: build test clippy doc bench lint-repo
	@echo "verify: OK"
