#!/usr/bin/env python3
"""Blocking perf gate for the actyp_sim scenario sweep.

Runs ``actyp_sim --all --json`` at pinned, deterministic settings,
writes the result to ``BENCH_<sha>.json``, and compares every scenario
cell against the checked-in ``BENCH_baseline.json``:

* **Deterministic metrics** — everything computed in simulated time
  (response means/percentiles, the per-stage profiler percentiles,
  refresh-economics counters, replication observables) is a pure
  function of the pinned seed, so it is compared exactly (or within
  ``--det-tolerance`` if you opt into slack). Any mismatch is drift.
* **Wall-clock metrics** — the TCP roundtrip latencies, the query
  micro-benchmark timings, and the sweep's own ``wall_clock_s`` are
  machine-dependent and noisy. The baseline stores a min/max band
  measured over ``--repeats`` runs, and the gate only fails when the
  current value rises above the band's upper edge by more than
  ``--wall-slack`` (default 2.0 = 3x the band edge). Getting faster
  never fails the gate. What the simulator costs on the host is
  measured by ``benchmark/``, not here.

Usage:
    tools/bench_baseline.py                      # run + gate
    tools/bench_baseline.py --update             # refresh the baseline
    tools/bench_baseline.py --binary build/actyp_sim --wall-slack 3

``--update`` refuses to run from a binary that is older than the
newest source file (a stale binary would bake yesterday's numbers into
the baseline); rebuild first, or pass ``--allow-stale`` to override.
It also re-runs the sweep ``--repeats`` times and fails if any
deterministic metric differs between repeats — the exact gate is only
sound if the sweep really is reproducible on this host.

Exit status: 0 when the gate passes (or no baseline exists yet), 1 on
drift, 2 on harness errors (missing/stale binary, non-deterministic
sweep, unreadable baseline). The CI ``bench-baseline`` job runs this
as a **blocking** check: legitimate model changes must refresh the
baseline in the same PR (``--update``, commit BENCH_baseline.json).
"""

import argparse
import json
import os
import subprocess
import sys
import time

# Pinned run: deterministic, and small enough for a CI sidecar (~10 s).
# time-scale 0.4 keeps the simulated window past the monitor's 5 s sweep
# period, so the tracked entries_refreshed / refresh_cost metrics see
# real monitor churn instead of a quiet fleet.
RUN_ARGS = [
    "--all", "--json",
    "--seed", "1",
    "--machines", "400",
    "--clients", "4",
    "--time-scale", "0.4",
]

BASELINE_FORMAT = 2

# Scenarios whose numbers are wall-clock, not simulated time.
WALL_CLOCK_SCENARIOS = {"tcp_roundtrip", "abl_query_micro", "_sweep_meta"}
# Wall-clock metric names, wherever they appear. Band-gated, never
# compared exactly.
WALL_CLOCK_METRICS = {"mean_ms", "max_ms", "p95_ms", "ns_per_op",
                      "wall_clock_s"}

DIMENSION_KEYS = {
    "pools", "clients", "machines", "segments", "replicas", "fanout",
    "loss", "rate", "calls", "bucket_lo", "bucket_hi", "qms", "pms",
    "sites",
}

# Everything that can change the numbers the sweep emits. Used by the
# stale-binary refusal in --update.
SOURCE_ROOTS = ["src", "bench", "tools"]
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cmake")
SOURCE_FILES = ["CMakeLists.txt"]


def run_sweep(binary):
    start = time.monotonic()
    try:
        out = subprocess.run(
            [binary] + RUN_ARGS, capture_output=True, text=True, check=True)
    except FileNotFoundError:
        print(f"bench_baseline: binary not found: {binary}", file=sys.stderr)
        sys.exit(2)
    except subprocess.CalledProcessError as err:
        sys.stderr.write(err.stderr)
        print(f"bench_baseline: {binary} failed with {err.returncode}",
              file=sys.stderr)
        sys.exit(2)
    elapsed = time.monotonic() - start
    reports = []
    for line in out.stdout.splitlines():
        line = line.strip()
        if line:
            reports.append(json.loads(line))
    # Host-side perf record for the whole sweep (band-gated like the
    # other wall-clock metrics).
    reports.append({
        "scenario": "_sweep_meta",
        "title": "sweep harness record",
        "cells": [{"wall_clock_s": round(elapsed, 3)}],
        "note": "wall-clock of the pinned --all sweep on the CI host",
    })
    print(f"bench_baseline: sweep wall-clock {elapsed:.1f}s")
    return reports


def git_sha(repo_root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=repo_root,
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "worktree"


def newest_source_mtime(repo_root):
    """Most recent mtime across everything compiled into actyp_sim."""
    newest = 0.0
    newest_path = None
    paths = [os.path.join(repo_root, name) for name in SOURCE_FILES]
    for root_name in SOURCE_ROOTS:
        for dirpath, _dirnames, filenames in os.walk(
                os.path.join(repo_root, root_name)):
            for filename in filenames:
                if filename.endswith(SOURCE_SUFFIXES):
                    paths.append(os.path.join(dirpath, filename))
    for path in paths:
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            continue
        if mtime > newest:
            newest, newest_path = mtime, path
    return newest, newest_path


def check_binary_fresh(binary, repo_root):
    """--update refuses a binary older than the newest source file."""
    try:
        binary_mtime = os.path.getmtime(binary)
    except OSError:
        print(f"bench_baseline: binary not found: {binary}", file=sys.stderr)
        sys.exit(2)
    source_mtime, source_path = newest_source_mtime(repo_root)
    if source_mtime > binary_mtime:
        rel = os.path.relpath(source_path, repo_root)
        print(f"bench_baseline: refusing --update from a stale binary: "
              f"{rel} is newer than {binary}.\n"
              f"Rebuild (cmake --build build -j) or pass --allow-stale.",
              file=sys.stderr)
        sys.exit(2)


def cell_key(cell):
    """Identity of a cell: its labels and dimensions, not its metrics."""
    parts = []
    for key, value in sorted(cell.items()):
        if isinstance(value, str) or key in DIMENSION_KEYS:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def is_wall_metric(scenario, name):
    return name in WALL_CLOCK_METRICS or scenario in WALL_CLOCK_SCENARIOS


def split_metrics(reports):
    """Indexes a sweep into (deterministic, wall) metric maps.

    deterministic: {(scenario, cell_key): {metric: value}} — exact-gated.
    wall: {(scenario, cell_key, metric): value} — band-gated; only the
    named WALL_CLOCK_METRICS are tracked (a wall-clock scenario's other
    counters are neither reproducible nor interesting, so they are
    ignored rather than gated).
    """
    det = {}
    wall = {}
    for report in reports:
        scenario = report["scenario"]
        for cell in report.get("cells", []):
            key = (scenario, cell_key(cell))
            metrics = {}
            for name, value in cell.items():
                if isinstance(value, str) or name in DIMENSION_KEYS:
                    continue
                if not isinstance(value, (int, float)):
                    continue
                if name in WALL_CLOCK_METRICS:
                    wall[key + (name,)] = float(value)
                elif scenario not in WALL_CLOCK_SCENARIOS:
                    metrics[name] = float(value)
            if scenario not in WALL_CLOCK_SCENARIOS:
                det[key] = metrics
    return det, wall


def diff_deterministic(baseline, current, tolerance):
    """Exact (or tolerance-bounded) compare. Returns drift lines."""
    drift = []
    for key, base_metrics in sorted(baseline.items()):
        scenario, cell = key
        cur_metrics = current.get(key)
        if cur_metrics is None:
            drift.append(f"{scenario} [{cell}]: cell missing from this run")
            continue
        for name, base_value in sorted(base_metrics.items()):
            if name not in cur_metrics:
                drift.append(f"{scenario} [{cell}] {name}: metric missing")
                continue
            cur_value = cur_metrics[name]
            if base_value == cur_value:
                continue
            scale = max(abs(base_value), abs(cur_value), 1e-12)
            rel = abs(cur_value - base_value) / scale
            if rel > tolerance:
                drift.append(
                    f"{scenario} [{cell}] {name}: "
                    f"{base_value:g} -> {cur_value:g} ({rel:+.1%})")
    for key in sorted(set(current) - set(baseline)):
        drift.append(f"{key[0]} [{key[1]}]: new cell (not in baseline)")
    return drift


def diff_wall(bands, current, slack):
    """Band gate: fail only above the measured band by > slack (every
    wall metric is a time, so only slower is bad)."""
    drift = []
    for key, band in sorted(bands.items()):
        scenario, cell, name = key.split("\t")
        value = current.get((scenario, cell, name))
        if value is None:
            drift.append(f"{scenario} [{cell}] {name}: "
                         "wall metric missing from this run")
            continue
        lo, hi = band["min"], band["max"]
        ceiling = hi * (1.0 + slack)
        if value > ceiling:
            drift.append(
                f"{scenario} [{cell}] {name}: {value:g} above "
                f"{ceiling:g} (baseline band [{lo:g}, {hi:g}], "
                f"slack {slack:g})")
    return drift


def build_baseline(binary, repeats):
    """Runs the sweep `repeats` times: the deterministic metrics must be
    identical across runs; the wall metrics become min/max bands."""
    runs = [run_sweep(binary) for _ in range(repeats)]
    det0, _ = split_metrics(runs[0])
    bands = {}
    for index, run in enumerate(runs):
        det, wall = split_metrics(run)
        if det != det0:
            print("bench_baseline: deterministic metrics differ between "
                  f"repeat 0 and repeat {index} — the sweep is not "
                  "reproducible on this host; cannot build an exact "
                  "baseline", file=sys.stderr)
            sys.exit(2)
        for key, value in wall.items():
            entry = bands.setdefault(
                "\t".join(key), {"min": value, "max": value})
            entry["min"] = min(entry["min"], value)
            entry["max"] = max(entry["max"], value)
    return {
        "format": BASELINE_FORMAT,
        "pinned_args": RUN_ARGS,
        "repeats": repeats,
        "reports": runs[0],
        "wall_bands": bands,
    }


def load_baseline(path):
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, list):
        print(f"bench_baseline: {path} is a format-1 baseline (plain "
              "report list); regenerate it with --update", file=sys.stderr)
        sys.exit(2)
    if data.get("format") != BASELINE_FORMAT:
        print(f"bench_baseline: {path} has unsupported format "
              f"{data.get('format')!r}; regenerate it with --update",
              file=sys.stderr)
        sys.exit(2)
    return data


def main():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary",
                        default=os.path.join(repo_root, "build", "actyp_sim"))
    parser.add_argument("--baseline",
                        default=os.path.join(repo_root, "BENCH_baseline.json"))
    parser.add_argument("--output-dir", default=repo_root,
                        help="where BENCH_<sha>.json is written")
    parser.add_argument("--det-tolerance", type=float, default=0.0,
                        help="max relative drift for deterministic metrics "
                             "(default 0 = exact)")
    parser.add_argument("--wall-slack", type=float, default=2.0,
                        help="allowed excursion past the wall-clock band, "
                             "relative to the band edge (default 2.0)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs used by --update to measure wall-clock "
                             "bands (default 3)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from fresh runs")
    parser.add_argument("--allow-stale", action="store_true",
                        help="let --update run from a binary older than "
                             "the newest source file")
    args = parser.parse_args()

    if args.update:
        if not args.allow_stale:
            check_binary_fresh(args.binary, repo_root)
        if args.repeats < 1:
            print("bench_baseline: --repeats must be >= 1", file=sys.stderr)
            return 2
        baseline = build_baseline(args.binary, args.repeats)
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"bench_baseline: baseline refreshed at {args.baseline} "
              f"({args.repeats} repeats, "
              f"{len(baseline['wall_bands'])} wall bands)")
        return 0

    reports = run_sweep(args.binary)
    sha = git_sha(repo_root)
    run_path = os.path.join(args.output_dir, f"BENCH_{sha}.json")
    with open(run_path, "w") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"bench_baseline: wrote {run_path}")

    if not os.path.exists(args.baseline):
        print("bench_baseline: no baseline checked in; "
              "run with --update to create one")
        return 0

    baseline = load_baseline(args.baseline)
    base_det, _ = split_metrics(baseline["reports"])
    cur_det, cur_wall = split_metrics(reports)
    drift = diff_deterministic(base_det, cur_det, args.det_tolerance)
    drift += diff_wall(baseline["wall_bands"], cur_wall, args.wall_slack)
    if not drift:
        print(f"bench_baseline: {len(cur_det)} cells exact, "
              f"{len(cur_wall)} wall metrics within band "
              f"(slack {args.wall_slack:g})")
        return 0
    print(f"bench_baseline: {len(drift)} metric(s) drifted:")
    for line in drift:
        print(f"  {line}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
