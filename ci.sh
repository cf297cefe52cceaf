#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, tests, docs freshness, and
# the benchmark gates. simbench fails on a >2x throughput regression, a
# timing-pass fast-path gain dropping below 0.7x of the stored ratio, or
# the heterogeneous (divergent) workload paying >3% wall for the fast
# paths — all against the checked-in crates/bench/BENCH_sim_baseline.json
# (refresh with --update-baseline). loadtest gates the serving layer the
# same way against crates/bench/BENCH_serve_baseline.json, plus its
# structural gates: dup-heavy replay >= 3x cold throughput, warm-restart
# cache-hit rate >= 90%, and byte-identical reports across cache paths.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
# clippy.toml bans nondeterminism hazards (partial_cmp / comparator sorts
# on floats, std HashMap/HashSet) workspace-wide; --workspace also lints
# the bench member, which the root package does not depend on.
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
# Run every example, not only build it: each checks its own results (a
# panic, or serve_demo's byte-identity assert, fails here). They write
# only under the temp dir.
for ex in examples/*.rs; do
    cargo run --release --quiet --example "$(basename "$ex" .rs)"
done
# Once pinned to the serial executor, once at the machine's default thread
# count (the chunked executor, which fans warp alignment out, when >1
# core) — reports must be bit-identical either way
# (tests/parallel_differential.rs), so both runs must pass. The
# scheduler-equivalence suite (tests/sched_differential.rs) rides in both
# passes, pinning fast-forward on/off byte-equality at each thread count.
# --workspace runs every member crate's suite too (serde_json, sim, serve,
# core, apps, ...), not only the root package's, doc tests included.
NPAR_THREADS=1 cargo test -q --workspace
cargo test -q --workspace
# The scheduler-equivalence suite rides again with the timing pass forced
# parallel (DESIGN.md §13): NPAR_TIMING_THREADS=8 must stay byte-identical
# to the serial default at 1 and 8 host threads. (The suite's own matrix
# already pins --timing-threads 1/2/8 per test; these runs additionally
# flip the *default* every other differential test constructs its Gpus
# with.)
NPAR_THREADS=1 NPAR_TIMING_THREADS=8 cargo test -q --test sched_differential
NPAR_THREADS=8 NPAR_TIMING_THREADS=8 cargo test -q --test sched_differential
# perfbench is a package of its own outside the workspace, so the steps
# above never compile it: build it and run its tests here, so that a public
# API change that breaks the benchmark fails CI rather than a benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
# Docs freshness: every flag runner::parse accepts must have a row in
# README.md's flags table (fails naming the missing flag).
cargo run --release -p npar-bench --bin docs_check
# Static-analysis gate: no kernel class's verdict may drop from `proven`
# (crates/bench/ANALYZE_baseline.json; refresh with --update-baseline).
cargo run --release -p npar-bench --bin analyze_all
cargo run --release -p npar-bench --bin simbench
# Serving gate: loadtest replays the mixed workload cold / dup-heavy /
# warm-restarted (SERVING.md) and fails on any structural or baseline gate.
cargo run --release -p npar-bench --bin loadtest
