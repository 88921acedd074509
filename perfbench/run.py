#!/usr/bin/env python3
"""The repository benchmark: three closed batch workloads driven through
the package's public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Workloads (see ``perfbench/layers.json`` for why each was chosen and
which per-layer metric should move which end-to-end metric):

* ``fig15-commit``    ``fig15(0.1, workers=1, use_cache=False)``
* ``fig16-sizes``     ``fig16(0.03, workers=1, use_cache=False)``
* ``verify-campaign`` ``run_campaign(seed + 100003 * k, 10, jobs=nproc,
  checkpoint=<new path>, fresh=True)`` for calls ``k = 0, 1, ...``
  while the run's seconds last, so ``--seed`` drives the program
  generator.  Each program is cut after ``probe.PROGRAM_TIMEOUT_S`` CPU
  seconds and then counts as failed; the cuts are counted and printed.

A run is one fresh ``driver.py`` process that makes calls while one
more fits in ``--seconds`` (at least one).  Each call is hermetic:
it starts from a fresh worker pool and an empty trace LRU.  Every
``REPRO_*`` variable is stripped (what was stripped is recorded), so
no result cache, trace LRU, worker pool or checkpoint carries over.

``--trace 0`` reports the end-to-end metrics: medians over calls
(``setup_s`` over at least five fresh processes; cell latency
percentiles taken per call).  ``--trace 1`` runs call ``k = 0``
untraced at the workload's own worker count (for the harness counters
and the reference digests), untraced in-process, and traced
in-process, and reports the per-layer metrics.

Outputs are checked against ``perfbench/pins.json`` (a digest of every
figure cell's ``SimStats``; of every verify program's result for the
default seed), verify must report zero violations, and a traced run
must reproduce the untraced digests.  A verify program that raised is
a failure; on the pinned seed, so is a pinned program cut by the
timeout.  Any failure names the offending cells on stderr and exits 1.
A record of the host, every raw call and the spans goes to
``perfbench/runs/``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

NPROC = len(os.sched_getaffinity(0))
WORKLOADS = {
    "fig15-commit": {"workers": 1, "scale": 0.1},
    "fig16-sizes": {"workers": 1, "scale": 0.03},
    "verify-campaign": {"workers": NPROC, "count": 10},
}
#: the seed whose verify results are pinned
DEFAULT_SEED = 7
#: set-up samples per run (extra set-up-only processes fill the gap)
MIN_SETUPS = 5
#: a run ends within this many seconds: a sample process still running
#: at the deadline is killed and the run fails
RUN_DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def hermetic_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    stripped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    env["PYTHONPATH"] = str(ROOT / "src")
    # crash bundles (none expected) land in the run directory, never
    # in the tracked benchmarks/ tree
    env["REPRO_CRASH_DIR"] = str(RUNS / "crash")
    return env, stripped


def _group_running(pgid: int) -> bool:
    """Does any process of group ``pgid`` still run?  Exited members
    that only wait for init to reap them (state Z) do not count."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a sample's process group and wait
    until every member has ended."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while _group_running(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


def sample(env, argv, tag, deadline):
    """Run one ``driver.py`` process; returns its record plus setup_s."""
    out = RUNS / "tmp" / f"{os.getpid()}-{tag}.json"
    out.unlink(missing_ok=True)
    spawn = time.time()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "driver.py"), *argv, "--out", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    left = max(1.0, deadline - time.monotonic())
    try:
        _, err = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.communicate()
        raise BenchError(f"sample {tag} still running at the "
                         f"{RUN_DEADLINE_S}s deadline")
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"sample {tag} exited {proc.returncode}:\n{err}")
    record = json.loads(out.read_text())
    out.unlink()
    record["setup_s"] = record["ready_epoch"] - spawn
    return record


def driver_args(workload, settings, workers, seed, fault, budget=0.0):
    argv = ["--workload", workload, "--workers", str(workers),
            "--seed", str(seed), "--budget", f"{budget:.3f}"]
    if "scale" in settings:
        argv += ["--scale", str(settings["scale"])]
    if "count" in settings:
        argv += ["--count", str(settings["count"])]
    if fault:
        argv += ["--fault", fault]
    return argv


def percentile(values, q):
    """``statistics.quantiles`` cut point ``q`` of 100 (inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- checks -------------------------------------------------------------------

def check_call(workload, settings, call, pins, seed):
    """Problems with one call's outputs, each naming the cell."""
    problems = [f"violation: {cell}" for cell in call.get("violations", [])]
    problems += [f"error: {error}" for error in call.get("errors", [])]
    pin = pins.get(workload)
    if pin is None:
        return problems + [f"no pins for {workload}"]
    if pin["settings"] != settings_key(settings):
        return problems + [f"pins were made for {pin['settings']}, "
                           f"not {settings_key(settings)}"]
    got = call["digests"]
    if workload == "verify-campaign":
        expected = pin["campaigns"].get(str(call["campaign_seed"])) \
            if seed == pin["seed"] else None
        if expected is None:
            return problems
        cuts = set(call.get("cuts", []))
        for name, want in sorted(expected.items()):
            if name in cuts:
                problems.append(f"verify/{name}: cut by the program timeout, "
                                f"but it finished when the pins were made")
            elif got.get(name) != want:
                problems.append(f"verify/{name}: digest {got.get(name)} "
                                f"!= pinned {want}")
        return problems
    for cell, want in sorted(pin["cells"].items()):
        if got.get(cell) != want:
            problems.append(f"{cell}: digest {got.get(cell)} != pinned {want}")
    problems += [f"{cell}: not pinned" for cell in sorted(got)
                 if cell not in pin["cells"]]
    return problems


def compare_digests(ref, other, label):
    """Traced vs untraced: every cell neither run cut must agree."""
    problems = []
    skip = set(ref.get("cuts", [])) | set(other.get("cuts", []))
    a, b = ref["digests"], other["digests"]
    for cell in sorted(set(a) | set(b)):
        if cell in skip:
            continue
        if a.get(cell) != b.get(cell):
            problems.append(f"{cell}: {label} digest {b.get(cell)} != "
                            f"untraced {a.get(cell)}")
    return problems


def settings_key(settings):
    return {k: v for k, v in settings.items() if k in ("scale", "count")}


# -- the run ------------------------------------------------------------------

def host_block(seed):
    git = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu = None
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "git_sha": git, "seed": seed}


def run_e2e(workload, settings, env, seed, seconds, fault, deadline):
    record = sample(env, driver_args(workload, settings, settings["workers"],
                                     seed, fault, budget=seconds),
                    "run", deadline)
    calls = record.pop("calls")
    processes = [record]
    setups = [record["setup_s"]]
    while len(setups) < MIN_SETUPS:
        probe = sample(env, driver_args(workload, settings,
                                        settings["workers"], seed, fault)
                       + ["--mode", "setup"], f"setup{len(setups)}",
                       deadline)
        processes.append(probe)
        setups.append(probe["setup_s"])
    timed = all(c["latencies_ms"] is not None for c in calls)
    per_call = [c["latencies_ms"] for c in calls if c["latencies_ms"]]
    if timed and not per_call:
        raise BenchError("no cell completed")
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(len(c["failed"]) for c in calls)
    med = statistics.median
    metrics = {
        "setup_s": med(setups),
        "wall_s": med(c["wall_s"] for c in calls),
        "cpu_s": med(c["cpu_s"] for c in calls),
        # per-call percentiles, median over calls: a verify call mixes
        # 9 fixed litmus programs with 1 seeded one, and a pooled p90
        # falls on the boundary between them
        # absent (None) when a timing hook is missing
        "cell_p50_ms": med(percentile(lat, 50) for lat in per_call)
        if timed else None,
        "cell_p90_ms": med(percentile(lat, 90) for lat in per_call)
        if timed else None,
        "peak_rss_mb": med(c["peak_rss_mb"] for c in calls),
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {"processes": processes, "calls": calls,
            "cell_samples": sum(map(len, per_call)),
            "missing_hooks": sorted({h for p in processes
                                     for h in p["missing_hooks"]})}
    return metrics, attempted, failed, info


def run_traced(workload, settings, env, seed, fault, spans_path, deadline):
    """Untraced at the workload's worker count, untraced in-process,
    traced in-process: the first call (k = 0) of each."""
    workers = settings["workers"]
    untraced = sample(env, driver_args(workload, settings, workers, seed,
                                       fault), "untraced", deadline)
    serial = untraced if workers == 1 else sample(env, driver_args(
        workload, settings, 1, seed, fault), "serial", deadline)
    traced = sample(env, driver_args(workload, settings, 1, seed, fault)
                    + ["--traced", "--spans", str(spans_path)], "traced",
                    deadline)
    processes = [untraced, traced] + ([serial] if serial is not untraced
                                      else [])
    base, ref, mine = (p["calls"][0] for p in (untraced, serial, traced))
    metrics = dict(traced["layers"])
    for key in ("pool_spawn_s", "queue_wait_s", "busy_s",
                "parallel_efficiency"):
        metrics[f"harness.{key}"] = base["harness"][key]
    metrics["trace.overhead_frac"] = mine["wall_s"] / ref["wall_s"] - 1
    problems = compare_digests(base, mine, "traced")
    if serial is not untraced:
        problems += compare_digests(base, ref, "in-process")
    calls = [p["calls"][0] for p in processes]
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(len(c["failed"]) for c in calls)
    info = {"processes": processes, "calls": calls,
            "missing_hooks": sorted({h for p in processes
                                     for h in p["missing_hooks"]})}
    return metrics, attempted, failed, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run benchmark workloads and print their metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pins", default=str(HERE / "pins.json"),
                        help="digest pins to check against")
    parser.add_argument("--repin", action="store_true",
                        help="write this run's digests into --pins")
    parser.add_argument("--fault", default="",
                        help="REPRO_FAULT programme for the verify campaign "
                             "(self-test of the violation check)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    (RUNS / "tmp").mkdir(parents=True, exist_ok=True)
    if args.workload != "all":
        result = run_workload(args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"== {workload}")
        result = run_workload(workload, args)
        if result is None:
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def run_workload(workload, args):
    """Run, check and record one workload; print its metric table.
    Returns the result object, or None when a call could not finish."""
    settings = WORKLOADS[workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    env, stripped = hermetic_env()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = RUNS / f"{workload}-seed{args.seed}-trace{args.trace}-" \
                  f"{stamp}-{os.getpid()}"
    pins_path = pathlib.Path(args.pins)
    pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.trace:
            metrics, attempted, failed, info, problems = run_traced(
                workload, settings, env, args.seed, args.fault,
                base.with_suffix(".spans.json"), deadline)
        else:
            metrics, attempted, failed, info = run_e2e(
                workload, settings, env, args.seed, args.seconds,
                args.fault, deadline)
            problems = []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return None

    if args.repin:
        pins[workload] = make_pins(workload, settings, args.seed,
                                   info["calls"], pins.get(workload))
        pins_path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    for call in info["calls"]:
        problems += check_call(workload, settings, call, pins, args.seed)
    for hook in info.get("missing_hooks", []):
        print(f"perfbench: hook missing, its metrics are absent: {hook}",
              file=sys.stderr)
    cuts = [name for call in info["calls"] for name in call.get("cuts", [])]
    for name in cuts:
        print(f"perfbench: verify/{name} cut by the program timeout; "
              f"counted in failed", file=sys.stderr)

    record = {"host": host_block(args.seed), "workload": workload,
              "settings": settings, "trace": args.trace,
              "seconds": args.seconds, "env_stripped": stripped,
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "cuts": len(cuts), "problems": problems, **info}
    base.with_suffix(".json").write_text(json.dumps(record, indent=1))

    for name, value in metrics.items():
        unit = units[name]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit}")
    if "cell_samples" in info:
        print(f"cell latency samples: {info['cell_samples']}")
    if workload == "verify-campaign":
        print(f"verify programs cut by the timeout: {len(cuts)}")
    for problem in problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value,
                               "unit": units[name]}
                        for name, value in metrics.items()}}


def make_pins(workload, settings, seed, calls, old):
    if workload == "verify-campaign":
        pin = old if old and old.get("seed") == seed and \
            old.get("settings") == settings_key(settings) else \
            {"seed": seed, "settings": settings_key(settings),
             "campaigns": {}}
        # a cut program has no result to pin
        for call in calls:
            pin["campaigns"][str(call["campaign_seed"])] = {
                name: value for name, value in call["digests"].items()
                if name not in call["cuts"]}
        return pin
    return {"settings": settings_key(settings), "cells": calls[0]["digests"]}


if __name__ == "__main__":
    sys.exit(main())
