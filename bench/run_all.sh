#!/bin/sh
# Run every benchmark binary and collect the machine-readable outputs.
#
# Usage: bench/run_all.sh [--jobs N] [--seed S] [--trace BENCH]
#        [--timeseries BENCH[,BENCH...]] [build-dir] [output-dir]
#
# Each binary prints its usual text tables and writes BENCH_<name>.json
# (schema dsm-bench-v1) into the output directory. The output directory
# defaults to $DSM_BENCH_DIR if set, else ./bench-results; an explicit
# output-dir argument overrides both. --jobs N (or DSM_JOBS) is passed through to
# the binaries so each sweep runs its points on N host threads
# (mc_explore, the model checker's exhaustive sweep, runs serially).
# --trace BENCH runs that benchmark with transaction tracing on
# (DSM_TXN_TRACE=1), writing TRACE_<name>.json next to its
# BENCH_<name>.json; open it at https://ui.perfetto.dev.
# --timeseries BENCH[,BENCH...] runs each listed benchmark with
# time-resolved telemetry on (DSM_TIMESERIES=1), writing
# TIMESERIES_<name>.json plus a self-contained TIMESERIES_<name>.html
# report (open it in a browser).
# --seed S exports DSM_SEED=S so every sweep's simulated machines use
# seed S (recorded in each report's meta.seed); the campaign binaries
# (fault_sweep, chaos_sweep, openloop_sweep, overload_sweep) take S as
# their base seed, and the K per-point seeds of fault_sweep and
# chaos_sweep run S..S+K-1. An exported DSM_OPENLOOP=SPEC replaces
# openloop_sweep's load axis with the given level, and DSM_SERVE=SPEC
# replaces overload_sweep's mechanism axis with the given mode.
#
# Exits 1, naming them, if any listed bench is missing from the build
# or exits nonzero; the remaining benches still run.
set -eu

jobs=
trace_bench=
ts_benches=
while :; do
    case "${1:-}" in
    --jobs)
        jobs=$2
        shift 2
        ;;
    --jobs=*)
        jobs=${1#--jobs=}
        shift
        ;;
    --seed)
        DSM_SEED=$2
        export DSM_SEED
        shift 2
        ;;
    --seed=*)
        DSM_SEED=${1#--seed=}
        export DSM_SEED
        shift
        ;;
    --trace)
        trace_bench=$2
        shift 2
        ;;
    --trace=*)
        trace_bench=${1#--trace=}
        shift
        ;;
    --timeseries)
        ts_benches=$2
        shift 2
        ;;
    --timeseries=*)
        ts_benches=${1#--timeseries=}
        shift
        ;;
    *)
        break
        ;;
    esac
done

build_dir=${1:-build}
out_dir=${2:-${DSM_BENCH_DIR:-bench-results}}

if [ ! -d "$build_dir/bench" ]; then
    echo "error: $build_dir/bench not found -- build the project first" >&2
    echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
    exit 1
fi

mkdir -p "$out_dir"
DSM_BENCH_DIR=$(cd "$out_dir" && pwd)
export DSM_BENCH_DIR
# Keep the logs focused on the tables; dsm_inform chatter is off.
DSM_QUIET=1
export DSM_QUIET

benches="
table1_serialized_messages
fig2_contention_histograms
fig3_lockfree_counter
fig4_tts_counter
fig5_mcs_counter
fig6_applications
ablation_backoff
ablation_machine
ablation_serial_llsc
ablation_reservations
ablation_barrier
fault_sweep
chaos_sweep
openloop_sweep
overload_sweep
mc_explore
"

run_bench() {
    if [ -n "$jobs" ]; then
        "$1" --jobs "$jobs"
    else
        "$1"
    fi
}

# Every listed bench must run and exit 0. /bin/sh may be dash, which has
# no pipefail, so each bench's own exit status leaves the tee pipeline
# through fd 3 while its output goes to the terminal through fd 4.
exec 4>&1
failed=
for b in $benches; do
    bin="$build_dir/bench/$b"
    if [ ! -x "$bin" ]; then
        echo "error: $bin is missing -- build the project first" >&2
        failed="$failed $b"
        continue
    fi
    echo "==> $b"
    if [ "$b" = "$trace_bench" ]; then
        DSM_TXN_TRACE=1
        export DSM_TXN_TRACE
    else
        unset DSM_TXN_TRACE || true
    fi
    case ",$ts_benches," in
    *",$b,"*)
        DSM_TIMESERIES=1
        export DSM_TIMESERIES
        ;;
    *)
        unset DSM_TIMESERIES || true
        ;;
    esac
    status=$({ {
        rc=0
        run_bench "$bin" || rc=$?
        echo "$rc" >&3
    } | tee "$DSM_BENCH_DIR/$b.txt" >&4; } 3>&1)
    if [ "$status" != 0 ]; then
        echo "error: $b exited with status $status" >&2
        failed="$failed $b"
    fi
    echo
done

echo "collected reports in $DSM_BENCH_DIR:"
ls -1 "$DSM_BENCH_DIR"/BENCH_*.json 2>/dev/null || true
ls -1 "$DSM_BENCH_DIR"/TRACE_*.json 2>/dev/null || true
ls -1 "$DSM_BENCH_DIR"/TIMESERIES_* 2>/dev/null || true
if [ -n "$failed" ]; then
    echo "error: failed benches:$failed" >&2
    exit 1
fi
