#!/usr/bin/env bash
# Tier-1 gate for the XED reproduction workspace (see DESIGN.md §8).
#
# Runs entirely offline: the workspace has no crates.io dependencies and
# Cargo.lock is committed. Any step failing fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Gating: the one static-analysis pass (DESIGN.md §13) — token rules,
# the metric and trace-phase catalogues, golden constants, and
# call-graph proofs over the named hot paths (transitive panic/alloc
# freedom, atomic-ordering audit). Budget: well under 2 s including the
# cargo wrapper.
step "xed-analyze (static analysis)"
cargo run -q -p xtask -- analyze

# Gating: every intra-doc link must resolve, so a refactor cannot leave
# the docs naming items it deleted.
step "cargo doc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace

# --workspace: the root manifest is both package and workspace, and a
# bare build would compile only the `xed` facade — the smoke steps below
# need the xedd binary. XEDD_GIT_HASH bakes the commit into the
# daemon's /healthz build info (option_env!; "unknown" when absent). It
# is exported so every later step builds xedd with the same value: a
# step without it would rebuild xedd, and the next run's build again.
step "cargo build --release --workspace"
XEDD_GIT_HASH="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export XEDD_GIT_HASH
cargo build --release --workspace

step "cargo test -q"
cargo test -q --workspace

# Gating: the bit-sliced trial kernel must stay bit-identical to the
# scalar path under *release* codegen too — the debug `cargo test`
# above proves the unoptimized build, this re-runs the equivalence
# sweeps at the optimization level the benchmarks and figure binaries
# actually ship (DESIGN.md §14.1). The replay test is the oracle for the
# multi-fault walk: per-trial replays keep every fault, the kernels
# elide inert ones and end quiet trials before the walk, and the two
# must fold to the same result for every scheme under both kernels
# (DESIGN.md §9.3). The single-fault exit test holds the kernel's lone
# quiet faults, ended at their mode draw, to the full count-1 body on the
# same trials, for every scheme under four parameter variants. The
# premise test pins what makes the quiet exit
# safe: a fault whose domain holds no other multi-bit fault is evaluated
# exactly as in isolation, verdict and draws. The tail engine rests on
# the same premise: its walk over the shared domains only must end like
# the full walk, its memoized pilot probe must match the round loop, and
# its estimates stay pinned bit for bit (DESIGN.md §14.2–14.3). The
# scheduler tests pin what keeps every run thread-count-invariant: each
# chunk is claimed exactly once, by at most min(threads, chunks)
# workers, and a one-thread run stays on the calling thread (§9.2).
equivalence_tests=(
    one_thread_runs_every_chunk_on_the_caller
    every_chunk_is_claimed_exactly_once_by_at_most_min_threads_chunks_workers
    bit_sliced_kernel_is_bit_identical_to_scalar
    single_quiet_fault_exit_matches_the_full_body
    replaying_every_trial_reproduces_the_aggregate_result
    evaluation_outside_the_domain_matches_isolated
    shared_domain_walk_matches_the_full_walk
    memoized_probe_matches_the_round_loop
    estimates_are_pinned_bit_for_bit_in_every_mode
)
step "bit-sliced vs scalar kernel, replay, tail-walk and scheduler equivalence (release)"
cargo test -q --release -p xed-faultsim --lib -- "${equivalence_tests[@]}"

# Gating: the same equivalence set built at the portable x86-64 level.
# `.cargo/config.toml` builds at x86-64-v3, and RUSTFLAGS replaces that
# setting, so this build has no AVX2, BMI2 or POPCNT code. It must hit
# the same pins, the tail estimates included: results may not depend on
# the instruction set (DESIGN.md §14.1). The SECDED kernel's syndrome is
# eight popcounts, one instruction each at v3 and a bit-twiddling fold
# here, so its differential sweeps against the bit-serial oracles and the
# exhaustive single/double sweeps run at this level too. Its own target
# directory keeps the v3 build's artifacts intact.
step "kernel, tail and SECDED equivalence at the portable x86-64 level (release)"
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
    cargo test -q --release -p xed-faultsim --lib -- "${equivalence_tests[@]}"
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
    cargo test -q --release --test ecc_kernel_equivalence --test exhaustive_secded

# Gating: the one-pass FR-FCFS scheduler with per-channel wake cycles
# must match the three-pass reference controller it replaced, kept as a
# test oracle, completion for completion and counter for counter, under
# release codegen too (DESIGN.md §3.2).
step "one-pass vs three-pass scheduler lockstep (release)"
cargo test -q --release -p xed-memsim --lib -- scheduler::reference::

# Gating: the xed-testkit cross-validation matrix (DESIGN.md §12) —
# exhaustive small-geometry oracle, analytic gate, metamorphic laws,
# golden xed-trace-v1 conformance, telemetry-diff pin. The seed audit
# of the seeded test sweeps runs in the xed-analyze step (XL013).
step "verify-matrix --quick"
cargo run -q -p xtask -- verify-matrix --quick

# Gating: the daemon's end-to-end smoke (DESIGN.md §15, §16) — boots on
# an ephemeral port, then exercises cold miss / warm hit byte-equality,
# canonical-key spelling invariance, streamed-partials consistency with
# batch, 400 rejection of unknown params, the /metrics registry (JSON
# and Prometheus exposition), and the tracing path, all in-process over
# real TCP. The grep re-asserts the trace case ran: a real traced
# request must export admission/cache/coalesce/evaluate/scheduler spans
# through /debug/flight.
step "xedd --selftest (incl. trace-propagation gate)"
./target/release/xedd --selftest | tee target/xedd.selftest.log
grep -q "traced request exports" target/xedd.selftest.log

# Gating: the benchmark's self-test (perfbench/BENCHMARK.md). Every
# workload runs in smoke mode, traced and untraced; each section's
# outputs must match the pinned goldens (including the datapath section's
# XedStats fingerprints of the functional chip models), the metric names
# and units must match BENCHMARK.json, and a deliberately wrong golden
# must drive success_rate below 1. It builds perfbench into its own
# target directory (.bench_build).
step "perfbench/run.py --selftest"
python3 perfbench/run.py --selftest

# Gating: the two timing gates, at full scale under release codegen,
# one test at a time so neither shares the CPUs. The rare-event engine's
# 95 % CI must be >= 10x tighter than plain Monte-Carlo's at matched
# wall-clock on XedChipkill and DoubleChipkill (DESIGN.md §14.3), and a
# warm xedd cache hit must answer >= 100x faster than a cold miss at p50
# (DESIGN.md §15.2). Both print their measured ratio and are ignored in
# debug builds.
step "tail CI-width and warm-cache latency gates (release, one test at a time)"
cargo test -q --release -p xed-faultsim --lib -- --test-threads=1 --exact --nocapture \
    rareevent::tests::tail_ci_beats_plain_mc_tenfold_at_matched_wall_clock
cargo test -q --release -p xedd --test daemon -- --test-threads=1 --exact --nocapture \
    warm_hits_are_a_hundred_times_faster_than_cold_misses_at_p50

# Non-gating: bound the telemetry overhead. The Monte-Carlo headline
# with the counters live vs. gated off; on a quiet box the two agree
# within noise (DESIGN.md §11.3 budgets < 3%). CI-box contention can
# exceed that, so report, don't gate.
step "telemetry overhead check (non-gating)"
cargo test -q --release --test telemetry_equivalence -- --ignored --nocapture \
    telemetry_overhead_stays_within_budget ||
    printf 'warning: telemetry overhead above the 3%% budget or check failed (non-gating)\n'

printf '\nci.sh: all tier-1 checks passed\n'
