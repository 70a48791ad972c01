#!/usr/bin/env python3
"""Host-cost benchmark for the ActYP simulator.

Builds benchmark/ (a CMake project of its own) and runs its workloads in
fresh processes. Run from anywhere in a checkout of the repository:

  run.py                         all workloads x 5 repeats, round-robin;
                                 prints every end-to-end metric
  run.py --trace                 ... plus one traced run per workload and
                                 the per-layer table
  run.py --out a.json            ... and saves the results
  run.py --compare a.json b.json applies BENCHMARK.json's bounds to the
                                 medians, one row per workload and metric
  run.py --quick                 smoke: 1 repeat at 1/20 of the windows,
                                 twice; the digests must match
  run.py --workload lan_indexed --seed 3 --seconds 15 --trace 0
                                 one workload; the last line of output is
                                 one JSON result (--trace 1: per-layer)

Every run's deterministic outputs are folded into a digest. Repeats of
one seed must agree, and digests recorded in benchmark/digests.json
(--record adds this invocation's) must match. Any mismatch fails the run
and the exit code.
"""

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGEST_FILE = os.path.join(BENCH_DIR, "digests.json")

WORKLOADS = ["lan_indexed", "lan_linear", "wan_lp", "wan_churn"]
# Workloads without faults: every simulated request must complete.
FAULT_FREE = {"lan_indexed", "lan_linear", "wan_lp"}
REPEATS = 5
# The binaries' base windows take about this much host time; a run of
# --seconds S gives each of its REPEATS repeats S / REPEATS of it.
BASE_WINDOW_HOST_S = 8.0
QUICK_SCALE = 1.0 / 20
PROCESS_TIMEOUT_S = 150

DIGEST_FIELDS = ("completed", "failures", "retries", "events",
                 "sim_resp_p50_ms", "sim_resp_p999_ms", "allocations",
                 "entries_examined", "lost")
# --compare counts a change, or a quartile spread, only when it exceeds
# both the metric's relative bound and this absolute floor. Set-up takes
# milliseconds on the small workloads, where a relative bound is jitter.
ABSOLUTE_FLOORS = {"setup_s": 0.02, "peak_rss_mb": 2.0}


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def exact_metrics(bench):
    """Simulated-time metrics: deterministic for a seed, so compared
    exactly. They are the per-layer metrics named sim_*."""
    return [m for m in bench["per_layer"] if m["name"].startswith("sim_")]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds both binaries; exits 2 when impossible."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: no library sources next to benchmark/ "
            "(expected CMakeLists.txt and src/ in %s)" % ROOT)
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "2", "--target",
                  "actyp_bench", "actyp_bench_trace"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build failed: %s" % " ".join(cmd))
            sys.exit(2)


def run_binary(build_dir, name, workload, seed, scale):
    """One fresh process; returns its JSON line, with '_problems' set."""
    cmd = [os.path.join(build_dir, name), "--workload", workload,
           "--seed", str(seed), "--window-scale", repr(scale)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed,
                "_problems": ["%s timed out" % name]}
    lines = proc.stdout.strip().splitlines()
    try:
        run = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(proc.stderr[-2000:])
        return {"workload": workload, "seed": seed,
                "_problems": ["%s exited %d without a result"
                              % (name, proc.returncode)]}
    problems = []
    if proc.returncode != 0:
        problems.append("%s exited %d: %s"
                        % (name, proc.returncode, run.get("error", "")))
    if run.get("timer_violation"):
        problems.append("timer accounting: " + run["timer_violation"])
    if not run.get("completed"):
        problems.append("no query completed")
    if workload in FAULT_FREE and run.get("failures"):
        problems.append("%d failed queries on a fault-free workload"
                        % run["failures"])
    if not problems:
        run["digest"] = digest(run)
        recorded = load_digests().get(digest_key(run))
        if recorded is not None and recorded != run["digest"]:
            problems.append("digest %s != recorded %s for %s"
                            % (run["digest"], recorded, digest_key(run)))
    run["_problems"] = problems
    return run


def digest(run):
    fields = {k: run[k] for k in DIGEST_FIELDS}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest_key(run):
    return "%s seed=%d window=%.6g" % (run["workload"], run["seed"],
                                       run["window_s"])


@functools.lru_cache(maxsize=None)
def load_digests():
    try:
        with open(DIGEST_FILE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def record_digests(runs):
    digests = dict(load_digests())
    for run in runs:
        if "digest" in run:
            digests[digest_key(run)] = run["digest"]
    with open(DIGEST_FILE, "w") as f:
        json.dump(dict(sorted(digests.items())), f, indent=1)
        f.write("\n")


def chunk_rate(run, seconds_key):
    """Completed queries per host second in the window's fastest chunk.

    A chunk's completions are fixed by the seed and its host time is
    measured exactly, so other processes on the host can only make a
    chunk look slower, never faster. On a shared machine they do so in
    bursts; the fastest chunk tracks the simulator's own speed where the
    median and the whole-window mean follow the contention.
    """
    return max(c / s for c, s in zip(run["chunk_completed"], run[seconds_key]))


def end_to_end(run):
    """The end-to-end metrics of one untraced run."""
    completed, failures = run["completed"], run["failures"]
    return {
        "setup_s": run["setup_s"],
        "queries_per_cpu_s": chunk_rate(run, "chunk_cpu_s"),
        "queries_per_wall_s": chunk_rate(run, "chunk_wall_s"),
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_queries_per_s": completed / run["window_s"],
        "sim_resp_p50_ms": run["sim_resp_p50_ms"],
        "sim_resp_p999_ms": run["sim_resp_p999_ms"],
        "sim_fail_frac": failures / (completed + failures),
    }


def summarize(values):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def check_repeats(runs):
    """Problems across the repeats of one workload and seed."""
    problems = list(dict.fromkeys(p for run in runs for p in run["_problems"]))
    digests = {run.get("digest") for run in runs if "digest" in run}
    if len(digests) > 1:
        problems.append("repeats disagree: digests %s" % sorted(digests))
    return problems


def workload_metrics(runs, metric_defs):
    good = [end_to_end(run) for run in runs if not run["_problems"]]
    out = {}
    for m in metric_defs:
        if good:
            out[m["name"]] = dict(summarize([g[m["name"]] for g in good]),
                                  unit=m["unit"])
    return out


def print_e2e_table(results, metric_defs):
    print("%-12s %-19s %-8s %14s %14s %14s %3s"
          % ("workload", "metric", "unit", "median", "q1", "q3", "n"))
    for w, res in results.items():
        for m in metric_defs:
            s = res["metrics"].get(m["name"])
            if s is None:
                continue
            print("%-12s %-19s %-8s %14.6g %14.6g %14.6g %3d"
                  % (w, m["name"], m["unit"], s["median"], s["q1"], s["q3"],
                     s["n"]))
        print("%-12s %-19s digest %s%s" % (
            w, "", res.get("digest", "-"),
            "" if not res["problems"] else
            "   FAILED: " + "; ".join(res["problems"])))


def traced_pair(args, workload, scale, per_layer):
    """An untraced and a traced run back to back, so the tracing overhead
    compares two runs under the same load on the host.

    Returns the per-layer metrics, the problems found and the number of
    processes that failed. The binary reports the layers; the three
    trace.* metrics that need the host-rate estimator are added here.
    """
    base = run_binary(args.build_dir, "actyp_bench", workload, args.seed,
                      scale)
    if base["_problems"]:
        return {}, list(base["_problems"]), 1
    run = run_binary(args.build_dir, "actyp_bench_trace", workload, args.seed,
                     scale)
    problems = list(run["_problems"])
    if run.get("digest") != base["digest"]:
        problems.append("traced digest %s != untraced %s"
                        % (run.get("digest"), base["digest"]))
    if run["_problems"]:
        return {}, problems, 1
    metrics = dict(run["metrics"])
    traced = chunk_rate(run, "chunk_cpu_s")
    metrics["trace.cpu_ns_per_query"] = 1e9 / traced
    metrics["trace.coverage"] = (
        metrics["trace.attributed_ns_per_query"] * traced / 1e9)
    metrics["trace.overhead_frac"] = 1 - traced / chunk_rate(base,
                                                             "chunk_cpu_s")
    for m in per_layer:
        if metrics.get(m["name"]) is None:
            problems.append("missing metric " + m["name"])
    return metrics, problems, 1 if problems else 0


def print_layer_table(traces, per_layer):
    names = list(traces)
    print("%-34s %-10s" % ("per-layer metric", "unit")
          + "".join("%13s" % w for w in names))
    for m in per_layer:
        row = "%-34s %-10s" % (m["name"], m["unit"])
        for w in names:
            value = traces[w].get(m["name"])
            row += "%13s" % ("-" if value is None else "%.4g" % value)
        print(row)


def all_workloads(args, bench):
    """Default mode: every workload, round-robin, with a table."""
    metric_defs = bench["end_to_end"] + exact_metrics(bench)
    # --quick: one repeat, run twice so the two digests can be compared.
    repeats = 2 if args.quick else REPEATS
    scale = QUICK_SCALE if args.quick else \
        args.seconds / (REPEATS * BASE_WINDOW_HOST_S)
    runs = {w: [] for w in WORKLOADS}
    for _ in range(repeats):
        for w in WORKLOADS:
            run = run_binary(args.build_dir, "actyp_bench", w, args.seed,
                             scale)
            log("%-12s %s" % (w, run.get("digest", "; ".join(
                run["_problems"]))))
            runs[w].append(run)
    results = {}
    failed = False
    for w in WORKLOADS:
        problems = check_repeats(runs[w])
        failed |= bool(problems)
        results[w] = {"runs": runs[w], "problems": problems,
                      "metrics": workload_metrics(runs[w], metric_defs)}
        if runs[w] and "digest" in runs[w][0]:
            results[w]["digest"] = runs[w][0]["digest"]
    print("seed %d, %d repeats per workload, window scale %.4g"
          % (args.seed, repeats, scale))
    print_e2e_table(results, metric_defs)

    if args.trace:
        traces = {}
        for w in WORKLOADS:
            metrics, problems, _ = traced_pair(args, w, scale,
                                               bench["per_layer"])
            failed |= bool(problems)
            results[w]["problems"] += problems
            results[w]["trace"] = traces[w] = metrics
            if problems:
                log("%s trace: %s" % (w, "; ".join(problems)))
        print()
        print_layer_table(traces, bench["per_layer"])

    if args.record:
        record_digests([r for w in WORKLOADS for r in runs[w]])
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "window_scale": scale,
                       "workloads": results}, f, indent=1)
    return 1 if failed else 0


def one_workload(args, bench):
    """Driver mode: one workload; the last output line is the result."""
    scale = args.seconds / (REPEATS * BASE_WINDOW_HOST_S)
    if not args.trace:
        runs = [run_binary(args.build_dir, "actyp_bench", args.workload,
                           args.seed, scale) for _ in range(REPEATS)]
        problems = check_repeats(runs)
        metrics = workload_metrics(runs, bench["end_to_end"])
        result_metrics = {m: {"value": s["median"], "unit": s["unit"]}
                          for m, s in metrics.items()}
        for m, s in metrics.items():
            print("%-19s %-8s median %.6g  q1 %.6g  q3 %.6g  n %d"
                  % (m, s["unit"], s["median"], s["q1"], s["q3"], s["n"]))
        attempted = len(runs)
        failed = sum(1 for run in runs if run["_problems"])
        if problems and not failed:
            failed = attempted  # repeats disagree with each other
    else:
        metrics, problems, failed = traced_pair(args, args.workload, scale,
                                                bench["per_layer"])
        result_metrics = {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]}
                          for m in bench["per_layer"] if m["name"] in metrics}
        for m, v in result_metrics.items():
            print("%-34s %-10s %.6g" % (m, v["unit"], v["value"]))
        attempted = 2
    for p in problems:
        log("run.py: " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 1 if problems else 0


def compare(path_a, path_b, bench):
    with open(path_a) as f:
        a = json.load(f)["workloads"]
    with open(path_b) as f:
        b = json.load(f)["workloads"]
    print("%-12s %-19s %-8s %13s %13s %9s %9s  %s"
          % ("workload", "metric", "unit", "A median", "B median", "change",
             "spread", "status"))
    regressed = False
    for w in [w for w in WORKLOADS if w in a and w in b]:
        for m in bench["end_to_end"] + exact_metrics(bench):
            sa = a[w]["metrics"].get(m["name"])
            sb = b[w]["metrics"].get(m["name"])
            if sa is None or sb is None:
                print("%-12s %-19s missing" % (w, m["name"]))
                continue
            ma, mb = sa["median"], sb["median"]
            change = (mb - ma) / ma if ma else 0.0
            worse = mb - ma if m["better"] == "lower" else ma - mb
            spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"]
                         else 0.0 for s in (sa, sb))
            if "bound" not in m:
                status = "ok" if ma == mb else "changed"
            else:
                allowed = max(m["bound"] * abs(ma),
                              ABSOLUTE_FLOORS.get(m["name"], 0.0))
                if max(s["q3"] - s["q1"] for s in (sa, sb)) > allowed:
                    status = "unresolved"
                elif worse > allowed:
                    status = "regressed"
                    regressed = True
                elif -worse > allowed:
                    status = "improved"
                else:
                    status = "ok"
            print("%-12s %-19s %-8s %13.6g %13.6g %+8.2f%% %8.2f%%  %s"
                  % (w, m["name"], m["unit"], ma, mb, 100 * change,
                     100 * spread, status))
        same = a[w].get("digest") == b[w].get("digest")
        print("%-12s %-19s %-8s %13s %13s %9s %9s  %s"
              % (w, "digest", "-", a[w].get("digest"), b[w].get("digest"),
                 "", "", "ok" if same else "changed"))
    return 1 if regressed else 0


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print a JSON result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="host seconds measured per workload, split "
                             "over %d repeats" % REPEATS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="add the traced per-layer run")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", help="write results as JSON")
    parser.add_argument("--record", action="store_true",
                        help="record this run's digests in digests.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--build-dir",
                        default=os.path.join(BENCH_DIR, "build"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.compare:
        return compare(args.compare[0], args.compare[1], bench)
    build(args.build_dir)
    if args.workload:
        return one_workload(args, bench)
    return all_workloads(args, bench)


if __name__ == "__main__":
    sys.exit(main())
