#!/usr/bin/env bash
# Repo CI gate: build, test, lint, format. Run before every push.
#
# Knobs (all optional, for the split CI matrix):
#   CI_LINT_ONLY=1     run only the static checks (clippy/fmt/doc) and exit —
#                      the fast `lint` job of the workflow matrix.
#   CI_SKIP_LINT=1     skip those same checks — the `test` job sets this so
#                      the two jobs partition the work instead of repeating it.
#   CI_BASELINE_DIR=d  cross-commit gating: if d/smoke.json exists (restored
#                      from the previous main run), compare against it before
#                      refreshing it with this run's baseline.
set -euo pipefail
cd "$(dirname "$0")"

run_lint() {
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --check
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
}

if [ -n "${CI_LINT_ONLY:-}" ]; then
    run_lint
    echo "ci: lint checks passed"
    exit 0
fi

cargo build --release --workspace
# Build every bench target too (the Criterion-style micro-benches are
# compiled by nothing else), so they cannot rot between measurements.
cargo bench --workspace --no-run
# --no-fail-fast: one failing crate must not hide the results of the rest.
cargo test -q --workspace --no-fail-fast
# The benchmark's self-tests: every workload on tiny meshes on both listed
# seeds, wall-force references and ledger sums, so a solver change that
# breaks the benchmark's checks fails CI.
cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir target
if [ -z "${CI_SKIP_LINT:-}" ]; then
    run_lint
fi

# Smoke logs land in CI_LOG_DIR when set (the GitHub workflow uploads it as
# an artifact on failure); otherwise in a throwaway tempdir.
if [ -n "${CI_LOG_DIR:-}" ]; then
    smoke_dir="$CI_LOG_DIR"
    mkdir -p "$smoke_dir"
else
    smoke_dir="$(mktemp -d)"
    trap 'rm -rf "$smoke_dir"' EXIT
fi

# Harness smoke gate: save a baseline then compare against it in the same
# environment. Tiny sizes, 1 rep; the huge relative tolerance means this
# asserts the registry -> stats -> baseline pipeline, never wall-clock.
./target/release/fun3d-bench run --suite smoke \
    --save-baseline "$smoke_dir/smoke.json" \
    --events-dir "$smoke_dir/runs" > "$smoke_dir/save.log"
./target/release/fun3d-bench run --suite smoke \
    --baseline "$smoke_dir/smoke.json" --tol-rel 1000 > "$smoke_dir/gate.log"
grep -q "overall:" "$smoke_dir/gate.log"

# Failure-path smoke: an injected 100x slowdown against the baseline just
# saved must make the gate exit nonzero and print REGRESSED verdicts — if
# this leg passes, a real regression cannot slip through a broken gate.
if FUN3D_BENCH_SLOWDOWN=100 ./target/release/fun3d-bench run --suite smoke \
    --baseline "$smoke_dir/smoke.json" --events-dir "$smoke_dir/runs-slow" \
    > "$smoke_dir/slowdown.log" 2>&1; then
    echo "ci: injected slowdown did not fail the gate"; exit 1
fi
grep -q "REGRESSED" "$smoke_dir/slowdown.log"
grep -q "overall: REGRESSED" "$smoke_dir/slowdown.log"

# Cross-commit gating: when the workflow restores the previous main run's
# baseline into CI_BASELINE_DIR, gate this commit against it (huge relative
# tolerance — shared runners are noisy; this asserts metric-set stability
# commit to commit, the MAD band catches true collapses), then refresh the
# directory so the next run compares against us.
if [ -n "${CI_BASELINE_DIR:-}" ]; then
    mkdir -p "$CI_BASELINE_DIR"
    if [ -f "$CI_BASELINE_DIR/smoke.json" ]; then
        ./target/release/fun3d-bench run --suite smoke \
            --baseline "$CI_BASELINE_DIR/smoke.json" --tol-rel 1000 \
            > "$smoke_dir/cross-commit.log"
        grep -q "overall:" "$smoke_dir/cross-commit.log"
    else
        echo "ci: no previous baseline in CI_BASELINE_DIR; seeding it"
    fi
    cp "$smoke_dir/smoke.json" "$CI_BASELINE_DIR/smoke.json"
fi

# Run inspection: `fun3d-report show` on a gate-written report must render
# the Figure 5 convergence table (from the sibling event stream) and the
# Table 3 phase breakdown; a self-diff must report zero regressions.
./target/release/fun3d-report show "$smoke_dir/runs/table1.json" > "$smoke_dir/show.log"
grep -q "Convergence (Figure 5)" "$smoke_dir/show.log"
grep -q "Phase breakdown (Table 3)" "$smoke_dir/show.log"
./target/release/fun3d-report diff "$smoke_dir/runs/table1.json" \
    "$smoke_dir/runs/table1.json" > "$smoke_dir/diff.log"
grep -q "regressions: 0" "$smoke_dir/diff.log"

# Threaded leg: the workspace tests again and the smoke gate with a
# 2-thread team.  FUN3D_THREADS reaches only the tests built on
# `BenchArgs::defaults` (the harness `run` tests and the spmv and speedup
# runner tests); the goldens choose their own thread teams, and the
# compressible ones already run on 2 threads.  The smoke report must
# record the thread count, and a threaded self-diff must be clean
# (threading cannot perturb the metrics the gate compares).
FUN3D_THREADS=2 cargo test -q --workspace --no-fail-fast
./target/release/fun3d-bench run --suite smoke --threads 2 \
    --save-baseline "$smoke_dir/smoke-t2.json" \
    --events-dir "$smoke_dir/runs-t2" > "$smoke_dir/save-t2.log"
./target/release/fun3d-bench run --suite smoke --threads 2 \
    --baseline "$smoke_dir/smoke-t2.json" --tol-rel 1000 > "$smoke_dir/gate-t2.log"
grep -q "overall:" "$smoke_dir/gate-t2.log"
grep -q '"nthreads":"2"' "$smoke_dir/runs-t2/table1.json"
./target/release/fun3d-report diff "$smoke_dir/runs-t2/table1.json" \
    "$smoke_dir/runs-t2/table1.json" > "$smoke_dir/diff-t2.log"
grep -q "regressions: 0" "$smoke_dir/diff-t2.log"

# Profiling leg: the smoke suite with per-thread region profiling on at 2
# threads.  The spmv run must emit ParRegion events, achieved-bandwidth
# (gbps) metrics for the BCSR SpMV and the block ILU(0) sweep, and a
# renderable `fun3d-report profile` view with both the imbalance and
# roofline tables.
./target/release/fun3d-bench run --suite smoke --threads 2 --profile \
    --events-dir "$smoke_dir/runs-prof" > "$smoke_dir/gate-prof.log"
grep -q "overall:" "$smoke_dir/gate-prof.log"
grep -q '"ev":"par_region"' "$smoke_dir/runs-prof/spmv.events.jsonl"
grep -q '"spmv/bcsr:gbps"' "$smoke_dir/runs-prof/spmv.json"
grep -q '"spmv/bilu:gbps"' "$smoke_dir/runs-prof/spmv.json"
grep -q '"par/spmv_csr"' "$smoke_dir/runs-prof/spmv.json"
./target/release/fun3d-report profile "$smoke_dir/runs-prof/spmv.json" \
    > "$smoke_dir/profile.log"
grep -q "load imbalance (Table 3)" "$smoke_dir/profile.log"
grep -q "Achieved bandwidth (Table 2)" "$smoke_dir/profile.log"
grep -q "spmv_csr" "$smoke_dir/profile.log"
# `show` must fold the imbalance summary in; pre-profile reports (earlier
# legs wrote them without --profile) must still render without it.
./target/release/fun3d-report show "$smoke_dir/runs-prof/spmv.json" > "$smoke_dir/show-prof.log"
grep -q "Parallel regions (2 threads)" "$smoke_dir/show-prof.log"
! grep -q "Parallel regions" "$smoke_dir/show.log"

# The overhead checks below share one sampling scheme: `check_overhead N
# sampler flag...` runs `sampler` (off) and `sampler flag...` (on) N times
# each, interleaved, and passes when the best "on" time is within 5% of
# the best "off" time.  A sampler prints one time in seconds.  Taking the
# best of interleaved runs damps the shared host's scheduler noise; each
# caller adds one retry on top.
min_of() {
    awk -v a="${1:-$2}" -v b="$2" 'BEGIN { print (a < b) ? a : b }'
}
check_overhead() {
    local n=$1 sampler=$2 t t_off="" t_on=""
    shift 2
    for _ in $(seq "$n"); do
        t=$("$sampler") || return 1
        t_off=$(min_of "$t_off" "$t")
        t=$("$sampler" "$@") || return 1
        t_on=$(min_of "$t_on" "$t")
    done
    awk -v off="$t_off" -v on="$t_on" 'BEGIN { exit !(on <= off * 1.05) }'
}

# Profiling overhead on the standalone spmv bin must stay under 5% (median
# CSR time, profiling off vs on), best of five per side.
spmv_sample() {
    ./target/release/spmv --scale 0.2 --threads 2 --quiet "$@" \
        --json "$smoke_dir/spmv-run.json" > /dev/null \
        && grep -o '"time_csr_s":[0-9.e-]*' "$smoke_dir/spmv-run.json" | cut -d: -f2
}
check_overhead 5 spmv_sample --profile \
    || { echo "ci: profiling overhead check retrying"; check_overhead 5 spmv_sample --profile; }

# Table 5 leg: the hybrid row's flux loop forks through ParCtx from 4,096
# edges, and --scale 0.001 builds 18,665.  The report must carry the
# hybrid time and both speedups.
./target/release/table5 --scale 0.001 --quiet --json "$smoke_dir/table5.json" \
    > "$smoke_dir/table5.log"
nedges=$(grep -o '"nedges":"[0-9]*"' "$smoke_dir/table5.json" | tr -dc '0-9')
[ "${nedges:-0}" -ge 4096 ] || { echo "ci: table5 mesh has $nedges edges, too few to fork"; exit 1; }
grep -q '"omp_speedup"' "$smoke_dir/table5.json"
grep -q '"mpi_speedup"' "$smoke_dir/table5.json"
grep -q '"flux_2thread_omp_s"' "$smoke_dir/table5.json"

# Rank-tracing leg: the `ranks` sweep at 4 simulated ranks with per-rank
# tracing.  The chrome trace must carry one lane per rank plus message
# flow arrows, the report the critical-path and wait-fraction gate
# metrics with eta_impl in (0, 1], and `fun3d-report comm` the per-rank
# phase table with a laggard called out.
./target/release/ranks --scale 0.01 --ranks 4 --trace-ranks --quiet \
    --json "$smoke_dir/ranks.json" --trace "$smoke_dir/ranks.trace.json" \
    > "$smoke_dir/ranks.log"
lanes=$(grep -o '"tid":[0-9]*' "$smoke_dir/ranks.trace.json" | sort -u | wc -l)
[ "$lanes" -eq 4 ] || { echo "ci: expected 4 trace lanes, got $lanes"; exit 1; }
grep -q '"ph":"s"' "$smoke_dir/ranks.trace.json"
eta=$(grep -o '"eta_impl":[0-9.e-]*' "$smoke_dir/ranks.json" | cut -d: -f2)
awk -v e="$eta" 'BEGIN { exit !(e > 0 && e <= 1) }' \
    || { echo "ci: eta_impl out of (0,1]: $eta"; exit 1; }
grep -q '"cp:total_s"' "$smoke_dir/ranks.json"
grep -q '"rank:scatter:wait_frac"' "$smoke_dir/ranks.json"
grep -q '"comm:bytes_per_iter"' "$smoke_dir/ranks.json"
./target/release/fun3d-report comm "$smoke_dir/ranks.json" > "$smoke_dir/comm.log"
grep -q "Per-rank phases" "$smoke_dir/comm.log"
grep -q "laggard" "$smoke_dir/comm.log"
grep -q "Critical path" "$smoke_dir/comm.log"
# The rank sweep must also gate cleanly against its own baseline.
./target/release/fun3d-bench run --suite ranks --scale 0.01 --ranks 4 --trace-ranks \
    --save-baseline "$smoke_dir/ranks-base.json" > "$smoke_dir/ranks-save.log"
./target/release/fun3d-bench run --suite ranks --scale 0.01 --ranks 4 --trace-ranks \
    --baseline "$smoke_dir/ranks-base.json" --tol-rel 1000 > "$smoke_dir/ranks-gate.log"
grep -q "overall:" "$smoke_dir/ranks-gate.log"

# Rank tracing off must cost <5% wall clock (the traced run above already
# pinned the simulated results; bitwise identity is a unit test), best of
# three per side: one run takes several seconds.
ranks_sample() {
    ./target/release/ranks --scale 0.01 --ranks 4 --quiet "$@" \
        --json "$smoke_dir/ranks-run.json" > /dev/null \
        && grep -o '"wall_s":[0-9.e-]*' "$smoke_dir/ranks-run.json" | cut -d: -f2
}
check_overhead 3 ranks_sample --trace-ranks \
    || { echo "ci: rank-trace overhead check retrying"; check_overhead 3 ranks_sample --trace-ranks; }

# Serving leg: a short open-loop smoke through the fun3d-serve engine (2
# workers, 2 arrival rates).  The report must carry the throughput and
# p99 tail gate metrics, a warm cache (hit rate > 0 after the first
# batch), and the direct-path identity check; `fun3d-report serve` must
# render the sweep and the knee summary.
FUN3D_SERVE_WORKERS=2 ./target/release/serve --steps 2 --quiet \
    --json "$smoke_dir/serve.json" > "$smoke_dir/serve.log"
grep -q '"rate0:solves_per_s"' "$smoke_dir/serve.json"
grep -q '"rate1:solves_per_s"' "$smoke_dir/serve.json"
grep -q '"rate1:p99_s"' "$smoke_dir/serve.json"
# Keys contain a colon, so the value is awk/cut field 3.
hit=$(grep -o '"serve:hit_rate":[0-9.e-]*' "$smoke_dir/serve.json" | cut -d: -f3)
awk -v h="$hit" 'BEGIN { exit !(h > 0.5) }' \
    || { echo "ci: serve cache hit rate too low: $hit"; exit 1; }
ident=$(grep -o '"serve:identity_match_ratio":[0-9.e-]*' "$smoke_dir/serve.json" | cut -d: -f3)
awk -v r="$ident" 'BEGIN { exit !(r == 1) }' \
    || { echo "ci: served results diverged from the direct path: $ident"; exit 1; }
./target/release/fun3d-report serve "$smoke_dir/serve.json" > "$smoke_dir/serve-view.log"
grep -q "Open-loop rate sweep" "$smoke_dir/serve-view.log"
grep -q "cache hit rate" "$smoke_dir/serve-view.log"
# The serve experiment must gate cleanly against its own baseline.
FUN3D_SERVE_WORKERS=2 ./target/release/fun3d-bench run --suite serve --steps 2 \
    --save-baseline "$smoke_dir/serve-base.json" > "$smoke_dir/serve-save.log"
FUN3D_SERVE_WORKERS=2 ./target/release/fun3d-bench run --suite serve --steps 2 \
    --baseline "$smoke_dir/serve-base.json" --tol-rel 1000 > "$smoke_dir/serve-gate.log"
grep -q "overall:" "$smoke_dir/serve-gate.log"
# Overload must reject, not hang: one worker at 3.2x its calibrated
# capacity with a depth-4 queue has to bounce arrivals at the door and
# still finish (the timeout is the no-deadlock assertion).  One retry
# damps scheduler noise in the reject count.
check_serve_rejects() {
    timeout 300 env FUN3D_SERVE_WORKERS=1 ./target/release/serve --steps 2 --quiet \
        --json "$smoke_dir/serve-w1.json" > /dev/null || return 1
    rej=$(grep -o '"serve:rejected_total":[0-9.e-]*' "$smoke_dir/serve-w1.json" | cut -d: -f3)
    awk -v r="$rej" 'BEGIN { exit !(r > 0) }'
}
check_serve_rejects \
    || { echo "ci: serve reject check retrying"; check_serve_rejects; } \
    || { echo "ci: overloaded serve engine produced no rejects"; exit 1; }

# Live-metrics leg: the same sweep with the collector, request tracing,
# and SLO layer on.  The metrics sidecar must carry the core series and a
# parseable Prometheus scrape, every request must leave a trace event, the
# 1-worker overload must drive health to saturated, and `fun3d-report
# live` must render sparklines with the health timeline.
FUN3D_SERVE_WORKERS=1 timeout 300 ./target/release/serve --steps 2 --quiet \
    --metrics --metrics-out "$smoke_dir/serve-live.metrics.jsonl" \
    --events "$smoke_dir/serve-live.events.jsonl" \
    --json "$smoke_dir/serve-live.json" > "$smoke_dir/serve-live.log"
grep -q '"series":"queue_depth"' "$smoke_dir/serve-live.metrics.jsonl"
grep -q '"series":"throughput_solves_per_s"' "$smoke_dir/serve-live.metrics.jsonl"
grep -q '"series":"health_state"' "$smoke_dir/serve-live.metrics.jsonl"
# The Prometheus exposition parses: every non-comment line is
# `fun3d_<name> <float>`, and at least one sample is present.
awk '/^#/ { next }
     !/^fun3d_[a-z0-9_]+ -?[0-9][0-9.e+-]*$/ { bad = 1 }
     { n += 1 }
     END { exit !(n > 0 && !bad) }' "$smoke_dir/serve-live.metrics.jsonl.prom" \
    || { echo "ci: malformed Prometheus scrape"; exit 1; }
grep -q '"ev":"request_trace"' "$smoke_dir/serve-live.events.jsonl"
# Overloading one worker at the top sweep rate must saturate its SLO.
grep -q '"rate1:health_state":2' "$smoke_dir/serve-live.json" \
    || { echo "ci: overloaded serve engine not marked saturated"; exit 1; }
grep -q '"serve:queue_wait_frac"' "$smoke_dir/serve-live.json"
./target/release/fun3d-report live "$smoke_dir/serve-live.json" > "$smoke_dir/live-view.log"
grep -q "Time series" "$smoke_dir/live-view.log"
grep -q "Health timeline" "$smoke_dir/live-view.log"
grep -q "saturated" "$smoke_dir/live-view.log"
# Metrics off must cost <5% wall clock vs on (the 1-worker sweep above;
# the dark run's single relaxed atomic load per request is the whole
# overhead budget), best of five per side.
serve_sample() {
    FUN3D_SERVE_WORKERS=1 timeout 300 ./target/release/serve --steps 2 --quiet "$@" \
        --json "$smoke_dir/serve-run.json" > /dev/null \
        && grep -o '"wall_s":[0-9.e-]*' "$smoke_dir/serve-run.json" | cut -d: -f2
}
check_overhead 5 serve_sample --metrics \
    || { echo "ci: metrics overhead check retrying"; check_overhead 5 serve_sample --metrics; }

# Flight-recorder / diagnosis leg.  An injected panic must leave a
# parseable `fun3d-blackbox/1` dump that `fun3d-report explain` renders;
# an injected NaN must raise a solver anomaly event and exit 3; `explain`
# on the profiled spmv run must rank it bandwidth-bound with %-of-STREAM
# evidence; and the slowdown A/B pair must name the regressed phase.
if FUN3D_PANIC_AT_STEP=1 ./target/release/table1 --scale 0.05 --steps 2 \
    --quiet --blackbox "$smoke_dir/panic.blackbox.jsonl" \
    > "$smoke_dir/panic.log" 2>&1; then
    echo "ci: injected panic did not fail the run"; exit 1
fi
grep -q '"schema":"fun3d-blackbox/1"' "$smoke_dir/panic.blackbox.jsonl"
grep -q '"reason":"panic"' "$smoke_dir/panic.blackbox.jsonl"
./target/release/fun3d-report explain \
    --blackbox "$smoke_dir/panic.blackbox.jsonl" > "$smoke_dir/panic-explain.log"
grep -q "anomaly-terminated" "$smoke_dir/panic-explain.log"
grep -q "Flight recorder" "$smoke_dir/panic-explain.log"

nan_status=0
FUN3D_NAN_AT_STEP=1 ./target/release/table1 --scale 0.05 --steps 2 --quiet \
    --json "$smoke_dir/nan.json" --events "$smoke_dir/nan.events.jsonl" \
    > "$smoke_dir/nan.log" 2>&1 || nan_status=$?
[ "$nan_status" -eq 3 ] \
    || { echo "ci: injected NaN exited $nan_status, expected 3"; exit 1; }
grep -q '"ev":"anomaly"' "$smoke_dir/nan.events.jsonl"
grep -q "non_finite_residual" "$smoke_dir/nan.events.jsonl"
./target/release/fun3d-report explain "$smoke_dir/nan.json" \
    --events "$smoke_dir/nan.events.jsonl" > "$smoke_dir/nan-explain.log"
grep -q "1. anomaly-terminated" "$smoke_dir/nan-explain.log"

./target/release/fun3d-report explain "$smoke_dir/runs-prof/spmv.json" \
    > "$smoke_dir/explain.log"
grep -q "bandwidth-bound" "$smoke_dir/explain.log"
grep -q "% of STREAM" "$smoke_dir/explain.log"
grep -q "explain:confidence" "$smoke_dir/explain.log"
./target/release/fun3d-report explain "$smoke_dir/runs/spmv.json" \
    "$smoke_dir/runs-slow/spmv.json" > "$smoke_dir/explain-ab.log"
grep -q "regressed phase:" "$smoke_dir/explain-ab.log"
# The attributed phase must be a real span phase, not the run-level bucket.
grep -q 'regression attributed to phase `spmv' "$smoke_dir/explain-ab.log"

# Recorder-on overhead must stay under 5% (median CSR spmv time, armed vs
# dark; the armed run only pays a try_lock ring write per span), best of
# five per side.
bb_sample() {
    ./target/release/spmv --scale 0.5 --threads 2 --quiet "$@" \
        --json "$smoke_dir/bb-run.json" > /dev/null \
        && grep -o '"time_csr_s":[0-9.e-]*' "$smoke_dir/bb-run.json" | cut -d: -f2
}
bb_armed=(--blackbox "$smoke_dir/bb-on.blackbox.jsonl")
check_overhead 5 bb_sample "${bb_armed[@]}" \
    || { echo "ci: flight-recorder overhead check retrying"; check_overhead 5 bb_sample "${bb_armed[@]}"; }

echo "ci: all checks passed"
