#!/usr/bin/env python3
"""Host-performance benchmark of the simulator.

Builds the simulator library from this checkout's src/ tree together
with the measuring program in perfbench/perfbench.cc, runs one workload for a fixed
host-time budget, checks every simulated output, and prints one JSON
line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: host seconds of
the fastest pass over the workload's points (set-up excluded), median
set-up seconds, simulated events per host second and host ns per
simulated op in that pass, peak RSS after set-up and one pass, and
simulated cycles. With --trace 1 they are the per-layer ones: counters
of each layer, unit costs of single layers, and span self times from
traced passes. A readable table of every metric goes to stderr.

perfbench/expected.json holds the digests recorded for the default and
held-out seeds; a run whose digest differs fails all its points. A
change that moves a simulated result on purpose records new digests
there.

Usage, from the repository root:

    python3 perfbench/run.py --workload tc_spin|counter_sweep|serve_chaos \\
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); traced runs also write their spans there.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tc_spin", "counter_sweep", "serve_chaos")
# Upper bound on one measurement, so that a run ends within three minutes.
MEASURE_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build the measuring program; return its path."""
    src = os.path.join(os.path.dirname(HERE), "src", "CMakeLists.txt")
    if not os.path.isfile(src):
        raise RuntimeError("simulator sources not found (expected %s)"
                           % os.path.relpath(src))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dsm_perfbench")


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(raw):
    w = raw["work"]
    # Every pass does the same simulated work, and interference from
    # other tenants of the host only ever slows a pass down, in bursts
    # from under a second to minutes long. The fastest pass is therefore
    # the steadiest estimate of the simulator's own cost; the median
    # pass is printed beside it.
    fastest = min(raw["wall_s"])
    return {
        "wall_s": (fastest, "s"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "sim_events_per_s": (w["events"] / fastest, "1/s"),
        "host_ns_per_op": (fastest * 1e9 / w["ops"], "ns"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "sim_cycles": (w["sim_cycles"], "cycles"),
    }


def per_layer(raw):
    w = raw["work"]
    ops = w["ops"]
    points = raw["point_ms"]
    return {
        "sim.queue_events_per_op": (ratio(w["events"], ops), "1/op"),
        "sim.event_ns": (raw["sim.event_ns"], "ns"),
        "sim.events": (w["events"], "count"),
        "cache.hit_ratio": (ratio(w["cache_hits"],
                                  w["cache_hits"] + w["cache_misses"]),
                            "ratio"),
        "cache.hits": (w["cache_hits"], "count"),
        "cpu.ops": (ops, "count"),
        "cpu.system_ctor_ms": (raw["cpu.system_ctor_ms"], "ms"),
        "cpu.admission_shed_frac": (ratio(w["rejected"], w["offered"]),
                                    "ratio"),
        "cpu.admission_wait_cycles": (ratio(w["admission_wait_sum"],
                                            w["admission_wait_count"]),
                                      "cycles"),
        "net.send_ns": (raw["net.send_ns"], "ns"),
        "net.msgs_per_op": (ratio(w["msgs"], ops), "1/op"),
        "net.hops_per_msg": (ratio(w["hops"], w["msgs"]), "1/msg"),
        "proto.nacks_per_op": (ratio(w["nacks"], ops), "1/op"),
        "proto.retries_per_op": (ratio(w["retries"], ops), "1/op"),
        "proto.invalidations_per_op": (ratio(w["invalidations"], ops),
                                       "1/op"),
        "proto.updates_per_op": (ratio(w["updates"], ops), "1/op"),
        "proto.sc_success_ratio": (ratio(w["sc_ok"],
                                         w["sc_ok"] + w["sc_fail"]),
                                   "ratio"),
        "proto.cas_success_ratio": (ratio(w["cas_ok"],
                                          w["cas_ok"] + w["cas_fail"]),
                                    "ratio"),
        "mem.dir_transitions_per_op": (ratio(w["dir_transitions"], ops),
                                       "1/op"),
        "mem.accesses_per_op": (ratio(w["mem_accesses"], ops), "1/op"),
        "mem.queue_cycles_per_access": (ratio(w["mem_queue_cycles"],
                                              w["mem_accesses"]),
                                        "cycles"),
        "mem.busy_frac": (ratio(w["mem_busy_cycles"],
                                w["mem_node_cycles"]), "ratio"),
        "mem.serve_coalesced_frac": (ratio(w["serve_coalesced"],
                                           w["serve_served"]), "ratio"),
        "mem.serve_slots_per_served": (ratio(w["serve_slots"],
                                             w["serve_served"]), "ratio"),
        "mem.serve_throttle_cycles": (w["serve_throttle_cycles"],
                                      "cycles"),
        "fault.injected_per_kmsg": (1e3 * ratio(w["fault_injected"],
                                                w["msgs"]), "1/kmsg"),
        "fault.retransmits_per_drop": (ratio(w["retransmits"],
                                             w["drops"]), "ratio"),
        "fault.dups_absorbed": (w["dups_absorbed"], "count"),
        "serve.sojourn_p99_cycles": (w["sojourn_p99"], "cycles"),
        "serve.goodput_per_kcycle": (1e3 * ratio(w["completed"],
                                                 w["sim_cycles"]),
                                     "1/kcycle"),
        "serve.slo_miss_frac": (ratio(w["rejected"] + w["slo_violations"],
                                      w["offered"]), "ratio"),
        "workloads.run_self_ms": (1e3 * statistics.median(
            raw["span_self_s"]["workloads.run"]), "ms"),
        "stats.collect_ms": (1e3 * statistics.median(
            raw["span_self_s"]["stats.collect"]), "ms"),
        "exp.point_ms_p50": (statistics.median(points), "ms"),
        "exp.point_ms_p90": (statistics.quantiles(points, n=10)[-1]
                             if len(points) > 1 else points[0], "ms"),
        "exp.point_samples": (len(points), "count"),
        "trace.overhead_frac": (min(raw["traced_wall_s"])
                                / min(raw["wall_s"]) - 1.0, "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    try:
        exe = build(build_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans_%s_%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: dsm_perfbench exceeded %d s" % MEASURE_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("perfbench: dsm_perfbench exited with %d" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = raw["attempted"], raw["failed"]
    problems = list(raw["problems"])
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    want = expected["digests"][args.workload].get(str(args.seed))
    if want is not None and want != raw["digest"]:
        # A simulated result moved: every point of the run is suspect.
        problems.append("digest %s != recorded %s for seed %d"
                        % (raw["digest"], want, args.seed))
        failed = attempted

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    log("perfbench %s seed=%d trace=%d: %d passes x %d points, digest %s,"
        " median pass %.4g s"
        % (args.workload, args.seed, args.trace, raw["passes"],
           raw["points_per_pass"], raw["digest"],
           statistics.median(raw["wall_s"])))
    for name, (value, unit) in metrics.items():
        log("  %-30s %16.6g %s" % (name, value, unit))
    log("  %-30s %16.6g ratio" % ("failed_frac", ratio(failed, attempted)))
    if args.trace:
        log("  span self time per traced pass (median of %d):"
            % len(raw["traced_wall_s"]))
        for name, per_pass in raw["span_self_s"].items():
            log("    %-28s %16.6g ms" % (name, 1e3 * statistics.median(
                per_pass)))
    for p in problems:
        log("  FAILED: " + p)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
