#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, end to end and per layer.

    python3 perfbench/run.py --workload reproduce|serve_cold|serve_warm \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it builds what it needs under
.bench_build/ on first use (static Release build for the end-to-end
numbers, shared build plus perfbench/trace_shim.cpp for the traced run).
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
NPROC = "4"

# scripts/reproduce.sh's driver list, run as its --quick mode runs them.
DRIVERS = [
    "table1_systems", "fig2_technique_comparison", "fig3_time_breakdown",
    "fig4_exascale_scaling", "fig5_short_application", "fig6_prediction_error",
    "ablation_failed_events", "ablation_restart_semantics",
    "ablation_level_skipping", "ablation_failure_distribution",
    "ablation_interval_vs_pattern", "ablation_energy_objective",
    "ablation_adaptive_horizon",
]
PLOTTED = {"fig2_technique_comparison", "fig4_exascale_scaling",
           "fig5_short_application", "fig6_prediction_error"}
QUICK_TRIALS = "--trials=40"
# The Figure 4/6 scenario grid: each progress line starts one row (one
# scenario, every technique selected and simulated). Row latency is the
# reproduction's per-request latency; the capped cells set its tail.
GRID_DRIVERS = ["fig4_exascale_scaling", "fig6_prediction_error"]
SETUP_REPEATS = 21

TECHNIQUES = ["dauwe", "moody", "di", "benoit", "daly", "young"]
LAYERS = ["math", "core", "models", "engine", "sim", "exp", "serve", "util"]
OPS = ["optimize", "predict", "scenario"]
STAGES = ["json_parse", "request_parse", "canonical_key", "cache_get",
          "envelope"]


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def sh(cmd, logfile, cwd=ROOT):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.call(cmd, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(logfile) as f:
            tail = f.read()[-4000:]
        raise BenchError("command failed (%d): %s\n%s" % (rc, " ".join(cmd), tail))


def generator():
    return ["-G", "Ninja"] if shutil.which("ninja") else []


def build():
    """Builds (or refreshes) the three trees; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no mlck sources next to perfbench/ (checkout incomplete)")
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    trees = {"static": os.path.join(BUILD, "static"),
             "shared": os.path.join(BUILD, "shared"),
             "perfbench": os.path.join(BUILD, "perfbench")}
    common = ["-DCMAKE_BUILD_TYPE=Release", "-DMLCK_BUILD_TESTS=OFF",
              "-DMLCK_BUILD_EXAMPLES=OFF", "-DMLCK_BUILD_BENCH=ON"]
    for name, extra in (("static", []), ("shared", ["-DBUILD_SHARED_LIBS=ON"])):
        tree = trees[name]
        if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
            sh(["cmake", "-S", ROOT, "-B", tree] + generator() + common + extra, logfile)
        sh(["cmake", "--build", tree, "-j", NPROC, "--target", "mlck"] + DRIVERS, logfile)
    tree = trees["perfbench"]
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", tree] + generator() +
           ["-DCMAKE_BUILD_TYPE=Release", "-DMLCK_BINARY_DIR=" + trees["static"],
            "-DMLCK_SHARED_DIR=" + trees["shared"]], logfile)
    sh(["cmake", "--build", tree, "-j", NPROC], logfile)
    return trees


def shim_path(trees):
    """The trace shim, after checking every wrapper still names a function
    the shared libraries define (a drifted signature would silently stop
    being traced)."""
    shim = os.path.join(trees["perfbench"], "libperfbench_trace.so")

    def defined(path):
        out = subprocess.run(["nm", "-D", "--defined-only", path],
                             capture_output=True, text=True, check=True).stdout
        return {line.split()[-1] for line in out.splitlines()
                if len(line.split()) == 3 and line.split()[1] == "T"}

    wrappers = {s for s in defined(shim) if s.startswith("_ZN4mlck") or
                s.startswith("_ZNK4mlck")}
    libs = set()
    for dirpath, _, files in os.walk(os.path.join(trees["shared"], "src")):
        for f in files:
            if f.startswith("libmlck_") and f.endswith(".so"):
                libs |= defined(os.path.join(dirpath, f))
    missing = sorted(wrappers - libs)
    if missing:
        raise BenchError("trace shim wraps functions the libraries no longer "
                         "define: " + ", ".join(missing))
    return shim


# -------------------------------------------------------------- reproduce

def run_driver(exe, name, outdir, env=None):
    """Runs one driver; returns wall, peak RSS, stdout digest, exit status
    and the wall time of each figure row (split at its progress lines)."""
    args = [exe] if name == "table1_systems" else [exe, QUICK_TRIALS]
    if name in PLOTTED:
        args.append("--plot=" + name.split("_")[0])
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=env, cwd=outdir)
    marks = []

    def read_err():
        for line in p.stderr:
            if line.startswith(b"[mlck] ") and not line.startswith(b"[mlck] wrote"):
                marks.append(time.perf_counter())

    reader = threading.Thread(target=read_err)
    reader.start()
    stdout = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    t1 = time.perf_counter()
    reader.join()
    p.stdout.close()
    p.stderr.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    bounds = [t0] + marks[1:] + [t1] if marks else [t0, t1]
    rows = [b - a for a, b in zip(bounds, bounds[1:])]
    return {"wall": t1 - t0, "rss_kb": usage.ru_maxrss,
            "digest": hashlib.sha256(stdout).hexdigest(),
            "status": p.returncode, "rows": rows}


def reproduce_pass(bindir, order, outdir, digests, env=None):
    t0 = time.perf_counter()
    runs = {name: run_driver(os.path.join(bindir, name), name, outdir, env)
            for name in order}
    wall = time.perf_counter() - t0
    bad = [n for n, r in runs.items()
           if r["status"] != 0 or r["digest"] != digests.get(n)]
    for n in bad:
        log("%s: exit %d, stdout sha256 %s (recorded %s)" %
            (n, runs[n]["status"], runs[n]["digest"], digests.get(n)))
    return {"wall": wall, "runs": runs, "bad": bad}


def reproduce_setup(bindir, outdir):
    """Spawn-to-exit of table1_systems, a driver with no simulation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        samples.append(run_driver(os.path.join(bindir, "table1_systems"),
                                  "table1_systems", outdir)["wall"])
    return statistics.median(samples)


def workload_reproduce(trees, seed, seconds, trace, outdir):
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)["stdout_sha256"]
    order = list(DRIVERS)
    random.Random(seed).shuffle(order)
    log("driver order: " + " ".join(order))
    if trace:
        shared = os.path.join(trees["shared"], "bench")
        base = reproduce_pass(shared, order, outdir, digests)
        tracedir = os.path.join(outdir, "trace")
        os.makedirs(tracedir)
        env = dict(os.environ, LD_PRELOAD=shim_path(trees),
                   PERFBENCH_TRACE_DIR=tracedir)
        traced = reproduce_pass(shared, order, outdir, digests, env)
        passes = [base, traced]
        metrics = layer_metrics(load_traces(tracedir), None, None)
        set_trace_walls(metrics, traced["wall"], base["wall"])
    else:
        static = os.path.join(trees["static"], "bench")
        setup = reproduce_setup(static, outdir)
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(reproduce_pass(static, order, outdir, digests))
        # Host stalls only ever add time, so each driver's wall and each
        # grid row's latency is its fastest over the run's passes; the
        # list's wall is the sum of its drivers'.
        best = {n: min(p["runs"][n]["wall"] for p in passes) for n in order}
        grids = [[r for n in GRID_DRIVERS for r in p["runs"][n]["rows"]]
                 for p in passes]
        if len({len(g) for g in grids}) != 1:
            raise BenchError("grid row counts differ between passes: %s" %
                             [len(g) for g in grids])
        rows = [min(r) for r in zip(*grids)]
        metrics = {
            "wall_s": (sum(best.values()), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (max(r["rss_kb"] for p in passes
                                for r in p["runs"].values()) / 1024.0, "MB"),
            "p50_ms": (quantile(rows, 0.5) * 1e3, "ms"),
            "p99_ms": (quantile(rows, 0.99) * 1e3, "ms"),
            "max_rate_rps": (len(rows) / sum(best[n] for n in GRID_DRIVERS), "1/s"),
        }
        log("reproduce: %d pass(es), %d grid rows each" % (len(passes), len(rows)))
    attempted = sum(len(p["runs"]) for p in passes)
    failed = sum(len(p["bad"]) for p in passes)
    return failed == 0, attempted, failed, metrics


# ------------------------------------------------------------------ serve

def serve_run(trees, variant, workload, seed, seconds, outdir, traced, preload=None):
    os.makedirs(outdir, exist_ok=True)
    cmd = [os.path.join(trees["perfbench"], "perfbench_serve"),
           "--mlck=" + os.path.join(trees[variant], "tools", "mlck"),
           "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--dir=."]
    if traced:
        cmd.append("--traced")
    if preload:
        cmd.append("--preload=" + preload)
    # Own session, so a timeout takes the daemon down with the generator.
    p = subprocess.Popen(cmd, cwd=outdir, stdout=subprocess.PIPE,
                         start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError("perfbench_serve did not finish in 150 s")
    if p.returncode != 0:
        raise BenchError("perfbench_serve exited %d" % p.returncode)
    with open(os.path.join(outdir, "serve_result.json"), "wb") as f:
        f.write(stdout)
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    log("%s: sent %d requests (%d distinct), stream digest %s" %
        (workload, result["requests_sent"], result["distinct_requests"],
         result["stream_digest"]))
    return result


def serve_outcome(r, workload):
    errors = r["failed"] + r["refused"] + r["mismatched"]
    correct = r["mismatched"] == 0
    if workload == "warm" and r["timed_cache_misses"] != 0:
        log("serve_warm: %d timed requests missed the plan cache" % r["timed_cache_misses"])
        correct = False
    if r["mismatched"]:
        log("%d responses differ from direct serve::evaluate" % r["mismatched"])
    return correct, int(r["attempted"]), int(errors)


def workload_serve(trees, workload, seed, seconds, trace, outdir):
    if trace:
        base = serve_run(trees, "shared", workload, seed, seconds,
                         os.path.join(outdir, "base"), True)
        r = serve_run(trees, "shared", workload, seed, seconds,
                      os.path.join(outdir, "traced"), True, shim_path(trees))
        tracedir = os.path.join(outdir, "traced")
        with open(os.path.join(tracedir, "daemon_metrics.json")) as f:
            sidecar = json.load(f)
        metrics = layer_metrics(load_traces(tracedir), r, sidecar)
        set_trace_walls(metrics, r["wall_s"], base["wall_s"])
        correct_b, attempted_b, failed_b = serve_outcome(base, workload)
        correct, attempted, failed = serve_outcome(r, workload)
        return correct and correct_b, attempted + attempted_b, failed + failed_b, metrics
    r = serve_run(trees, "static", workload, seed, seconds, outdir, False)
    log("%s: ladder %s" % (workload, json.dumps(r["ladder"])))
    if r["max_rate_rps"] <= 0:
        raise BenchError("no rung of the rate ladder met the p99 limit")
    metrics = {
        "wall_s": (r["wall_s"], "s"),
        "setup_s": (r["setup_s"], "s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "p50_ms": (r["p50_ms"], "ms"),
        "p99_ms": (r["p99_ms"], "ms"),
        "max_rate_rps": (r["max_rate_rps"], "1/s"),
    }
    correct, attempted, failed = serve_outcome(r, workload)
    return correct, attempted, failed, metrics


# ---------------------------------------------------------------- tracing

def load_traces(tracedir):
    """Sums the per-process summaries the shim wrote."""
    total = {"functions": {}, "layers": {}, "counters": {}}
    found = False
    for name in sorted(os.listdir(tracedir)):
        if not (name.startswith("trace-") and name.endswith(".json")):
            continue
        found = True
        with open(os.path.join(tracedir, name)) as f:
            doc = json.load(f)
        for section in ("functions", "layers"):
            for key, stats in doc[section].items():
                acc = total[section].setdefault(
                    key, {"calls": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0})
                for field in ("calls", "total_ns", "self_ns"):
                    acc[field] += stats[field]
                acc["max_ns"] = max(acc["max_ns"], stats.get("max_ns", 0))
        for key, value in doc["counters"].items():
            total["counters"][key] = total["counters"].get(key, 0.0) + value
    if not found:
        raise BenchError("the traced run wrote no trace (shim not loaded?)")
    return total


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(t, serve, sidecar):
    fn = t["functions"]
    c = t["counters"]
    m = {}

    def f(name, field="total_ns"):
        return fn.get(name, {}).get(field, 0)

    # sim
    sim_ns = t["layers"]["sim"]["total_ns"]
    m["sim.run_trials_ms"] = (sim_ns / 1e6, "ms")
    m["sim.trials"] = (c["trials"], "count")
    m["sim.failures"] = (c["failures"], "count")
    m["sim.ns_per_failure"] = (ratio(sim_ns, c["failures"]), "ns")
    m["sim.capped_trials"] = (c["capped_trials"], "count")
    m["sim.capped_share"] = (ratio(c["capped_trials"], c["trials"]), "ratio")
    m["sim.worst_cell_ms"] = (max([f(n, "max_ns") for n in fn if n.startswith("sim.")] + [0]) / 1e6, "ms")
    # models
    for tech in TECHNIQUES:
        m["models.select_ms." + tech] = (f("models.select." + tech) / 1e6, "ms")
        m["models.select_calls." + tech] = (f("models.select." + tech, "calls"), "count")
    # math
    m["math.law_build_ms"] = (f("math.law_build") / 1e6, "ms")
    m["math.law_build_calls"] = (f("math.law_build", "calls"), "count")
    m["serve.evaluate_nonexp_ms"] = (c["evaluate_nonexp_ns"] / 1e6, "ms")
    m["math.law_build_share"] = (ratio(f("math.law_build"), c["evaluate_nonexp_ns"]), "ratio")
    # core / engine
    m["engine.optimize_ms"] = (f("engine.optimize") / 1e6, "ms")
    m["core.optimize_ms"] = (c["optimize_ns"] / 1e6, "ms")
    m["core.evaluations"] = (c["evaluations"], "count")
    m["core.ns_per_evaluation"] = (ratio(c["optimize_ns"], c["evaluations"]), "ns")
    m["core.lattice_points"] = (c["lattice_points"], "count")
    m["core.coarse_share"] = (ratio(c["coarse_evaluations"], c["lattice_points"]), "ratio")
    m["engine.predict_calls"] = (f("engine.predict", "calls"), "count")
    m["engine.predict_us"] = (ratio(f("engine.predict"), f("engine.predict", "calls")) / 1e3, "us")
    m["engine.run_scenario_ms"] = (f("engine.run_scenario") / 1e6, "ms")
    # serve, work side
    for op in OPS:
        calls = c["evaluate_%s_calls" % op]
        m["serve.evaluate_calls." + op] = (calls, "count")
        m["serve.evaluate_ms." + op] = (ratio(c["evaluate_%s_ns" % op], calls) / 1e6, "ms")
    after = (serve or {}).get("stats_after", {})
    before = (serve or {}).get("stats_before", {})

    def timed(*path):
        """Change of a daemon counter over the timed phases (set-up, such
        as the serve_warm hot-set fill, excluded)."""
        a, b = after, before
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (a or 0) - (b or 0)

    hist = (sidecar or {}).get("histograms", {})
    req = hist.get("serve.request_latency_ns", {})
    job = hist.get("serve.job_latency_ns", {})
    m["serve.queue_wait_ms"] = (
        ratio(req.get("sum", 0) - job.get("sum", 0), req.get("count", 0)) / 1e6, "ms")
    m["serve.jobs_executed"] = (timed("jobs_executed"), "count")
    m["serve.coalesced"] = (timed("coalesced"), "count")
    m["serve.rejections"] = (timed("rejected_queue_full") +
                             timed("rejected_draining"), "count")
    m["serve.queue_depth_high_water"] = (
        (sidecar or {}).get("gauges", {}).get("serve.queue_depth_high_water", 0), "count")
    # serve, read side: per parsed request
    parsed = f("serve.request_parse", "calls")
    m["serve.requests_parsed"] = (parsed, "count")
    stage_fn = {"json_parse": "util.json_parse", "request_parse": "serve.request_parse",
                "canonical_key": "serve.canonical_key", "cache_get": "serve.cache_get",
                "envelope": "serve.envelope"}
    stage_us = 0.0
    for stage in STAGES:
        us = ratio(f(stage_fn[stage]), parsed) / 1e3
        stage_us += us
        m["serve.%s_us" % stage] = (us, "us")
    hits = timed("plan_cache", "hits")
    lookups = hits + timed("plan_cache", "misses")
    m["serve.cache_lookups"] = (lookups, "count")
    m["serve.cache_hit_ratio"] = (ratio(hits, lookups), "ratio")
    m["serve.ping_rtt_us"] = ((serve or {}).get("ping_rtt_us", 0.0), "us")
    client_p50_us = (serve or {}).get("p50_ms", 0.0) * 1e3
    m["serve.client_p50_us"] = (client_p50_us, "us")
    m["serve.handler_share"] = (ratio(stage_us, client_p50_us), "ratio")
    # every layer: calls, total and self time
    for layer in LAYERS:
        stats_l = t["layers"].get(layer, {"calls": 0, "total_ns": 0, "self_ns": 0})
        m[layer + ".calls"] = (stats_l["calls"], "count")
        m[layer + ".total_ms"] = (stats_l["total_ns"] / 1e6, "ms")
        m[layer + ".self_ms"] = (stats_l["self_ns"] / 1e6, "ms")
    return m


def set_trace_walls(m, traced, untraced):
    m["trace.wall_s"] = (traced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")


# ------------------------------------------------------------------- main

def quantile(values, q):
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["reproduce", "serve_cold", "serve_warm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        trees = build()
        outdir = os.path.join(BUILD, "run", args.workload)
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        if args.workload == "reproduce":
            result = workload_reproduce(trees, args.seed, args.seconds,
                                        args.trace, outdir)
        else:
            result = workload_serve(trees, args.workload.split("_")[1], args.seed,
                                    args.seconds, args.trace, outdir)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log("error: %s" % e)
        return 1
    correct, attempted, failed, metrics = result
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
