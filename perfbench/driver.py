"""Measured workload calls in a fresh process.

Started by ``run.py`` with every ``REPRO_*`` variable already stripped
from the environment.  Each call starts from a fresh worker pool and an
empty trace LRU (the first because the process is new, later ones after
``shutdown_pools()`` and ``clear_trace_cache()``), uses
``use_cache=False`` and, for verify, a new checkpoint with
``fresh=True`` — so no result cache, trace LRU, pool or checkpoint
carries over.  Writes one JSON document to ``--out``:

* ``ready_epoch``: wall-clock time at which set-up ended (imports,
  target registry, worker pool up and idle) — the parent subtracts its
  spawn time to get ``setup_s``;
* ``calls``: per call ``wall_s``, ``cpu_s`` (driver plus reaped workers,
  minus the workers' own start-up), ``peak_rss_mb``, per-cell
  latencies, cell counts, failures and result digests;
* with ``--traced``, the per-layer metrics of :mod:`tracer`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pathlib
import sys
import time


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def stats_digest(stats) -> str:
    return digest(dataclasses.asdict(stats))


def program_digest(entry: dict, cut: bool) -> str:
    """A checkpoint entry's digest.  A program cut by the program
    timeout digests its identity only; an errored program keeps its
    errors, less their tracebacks (which name source paths)."""
    if cut:
        return digest({"name": entry["name"], "sha": entry["sha"],
                       "status": "cut"})
    errors = [{k: v for k, v in error.items() if k != "traceback"}
              for error in entry.get("errors", [])]
    return digest(dict(entry, errors=errors))


# -- pool capture (untraced verify runs) -------------------------------------

POOL_OUTCOMES = []


def capture_pool_outcomes(missing):
    """Wrap ``ResilientPool.run`` so each task outcome's queue wait and
    in-worker host seconds are kept (the campaign does not return them)."""
    try:
        from repro.harness.resilience import ResilientPool
        orig = ResilientPool.__dict__["run"]
    except (ImportError, KeyError):
        missing.append("repro.harness.resilience.ResilientPool.run")
        return

    def run(self, tasks, *args, on_complete=None, **kwargs):
        def capture(task, outcome):
            value = outcome.value if isinstance(outcome.value, dict) else {}
            POOL_OUTCOMES.append((task.cell_id, str(outcome.status),
                                  outcome.queued_s, value.get("host_s")))
            if on_complete is not None:
                on_complete(task, outcome)
        return orig(self, tasks, *args, on_complete=capture, **kwargs)
    ResilientPool.run = run


# -- workloads ---------------------------------------------------------------

def run_figure(name, args):
    from repro.harness import experiments
    figure = {"fig15-commit": experiments.fig15,
              "fig16-sizes": experiments.fig16}[name]
    start = time.perf_counter()
    result = figure(args.scale, workers=args.workers, use_cache=False)
    wall = time.perf_counter() - start
    digests, latencies, failed = {}, [], []
    queued = busy = 0.0
    attempted = 0
    for label, suite in result.results.items():
        attempted += len(suite.statuses)
        for workload, status in suite.statuses.items():
            cell = f"{label}|{workload}"
            stats = suite.stats.get(workload)
            if stats is None:
                failed.append(cell)
                continue
            digests[cell] = stats_digest(stats)
            latencies.append(suite.timings[workload] * 1e3)
        queued += suite.queued_seconds()
        busy += suite.sim_seconds()
    return wall, {"attempted": attempted, "failed": failed,
                  "latencies_ms": latencies, "digests": digests,
                  "harness": {"queue_wait_s": queued, "busy_s": busy}}


def run_verify(args, workdir, missing):
    from repro.verify import campaign
    import probe
    hooked = probe._RUN_PROGRAM is not None
    if hooked:
        campaign._run_program = probe.run_program
    elif "repro.verify.campaign._run_program" not in missing:
        missing.append("repro.verify.campaign._run_program")
    checkpoint = workdir / f"verify-{os.getpid()}.jsonl"
    start = time.perf_counter()
    result = campaign.run_campaign(
        args.campaign_seed, args.count, jobs=args.workers,
        timeout=None if hooked else probe.PROGRAM_TIMEOUT_S,
        checkpoint=checkpoint, fresh=True, minimise=False,
        faults_text=args.fault)
    wall = time.perf_counter() - start
    entries = [json.loads(line)
               for line in checkpoint.read_text().splitlines()[1:]]
    checkpoint.unlink()
    combos = result.combos_per_program
    digests, failed, cuts, errors = {}, [], [], []
    for entry in entries:
        name, cut = entry["name"], probe.is_cut(entry)
        digests[name] = program_digest(entry, cut)
        if cut:
            cuts.append(name)
        else:
            errors += [f"{e['cell']}: {e['error']}"
                       for e in entry.get("errors", [])]
        failed.extend(f"{name}|{n}"
                      for n in range(combos - entry.get("combos", 0)))
    # per-program host seconds come from the timing hook: in the
    # workers through the pool capture, or in-process from the probe;
    # without the hooks they are absent, never estimated
    if args.workers > 1:
        latencies = [h * 1e3 for _, _, _, h in POOL_OUTCOMES
                     if h is not None] if hooked else []
        queued = sum(q for _, _, q, _ in POOL_OUTCOMES) \
            if POOL_OUTCOMES else None
    else:
        latencies = [h * 1e3 for _, h, status in probe.SAMPLES
                     if status == "ok"]
        queued = 0.0
    timed = hooked and (args.workers == 1 or bool(POOL_OUTCOMES))
    return wall, {"attempted": args.count * combos, "failed": failed,
                  "latencies_ms": latencies if timed else None,
                  "digests": digests, "cuts": cuts, "errors": errors,
                  "violations": sorted(v["cell"] for v in result.violations),
                  "harness": {"queue_wait_s": queued,
                              "busy_s": sum(latencies) / 1e3 if timed
                              else None}}


def bring_up_pool(workers):
    """Start the pool and wait until every worker answered once."""
    from repro.harness.resilience import TaskSpec, get_pool, next_task_id
    import probe
    pool = get_pool(workers)
    tasks = [TaskSpec(next_task_id(), f"warm/{i}", probe.warm, ())
             for i in range(workers)]
    outcomes = pool.run(tasks, chunk=1)
    return sum(o.value["cpu_s"] for o in outcomes.values()
               if isinstance(o.value, dict))


def campaign_seed(seed: int, k: int) -> int:
    """Campaign seed of call ``k`` of a run with seed ``seed``."""
    return seed + 100003 * k


def pool_peak_rss_kb(workers):
    """Largest max-RSS over the live workers (asked through the pool)."""
    from repro.harness.resilience import TaskSpec, get_pool, next_task_id
    import probe
    tasks = [TaskSpec(next_task_id(), f"rss/{i}", probe.warm, ())
             for i in range(workers)]
    outcomes = get_pool(workers).run(tasks, chunk=1)
    return max((o.value["rss_kb"] for o in outcomes.values()
                if isinstance(o.value, dict)), default=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--scale", type=float, help="figure scale")
    parser.add_argument("--count", type=int, help="programs per campaign")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="keep making calls while one more fits in "
                             "this many seconds (at least one call)")
    parser.add_argument("--fault", default="")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)

    import resource
    import repro                                    # noqa: F401
    from repro.harness import experiments           # noqa: F401
    from repro.harness.resilience import shutdown_pools
    from repro.verify import campaign               # noqa: F401
    from repro.workloads import clear_trace_cache, sweep_names
    import probe
    sweep_names()                                   # target registry
    missing = []
    tracer = None
    if args.traced:
        import tracer as tracer_mod
        tracer = tracer_mod.install()
        missing.extend(tracer.missing)
    verify = args.workload == "verify-campaign"
    if verify and args.workers > 1:
        capture_pool_outcomes(missing)

    def pool_up():
        if args.workers <= 1:
            return 0.0, 0.0
        begin = time.perf_counter()
        cpu = bring_up_pool(args.workers)
        return cpu, time.perf_counter() - begin

    warm_cpu, pool_spawn = pool_up()
    record = {"workload": args.workload, "mode": args.mode,
              "workers": args.workers, "traced": args.traced,
              "ready_epoch": time.time(), "pool_spawn_s": pool_spawn,
              "missing_hooks": missing, "calls": []}
    if args.mode == "setup":
        shutdown_pools()
        out.write_text(json.dumps(record))
        return 0

    start = time.perf_counter()
    k = 0
    while True:
        began = time.perf_counter()
        if record["calls"]:
            # every call after the first starts from a fresh pool and an
            # empty trace LRU, as a fresh process would
            clear_trace_cache()
            warm_cpu, pool_spawn = pool_up()
        POOL_OUTCOMES.clear()
        probe.SAMPLES.clear()
        self0 = probe.cpu_seconds()
        children0 = probe.cpu_seconds(resource.RUSAGE_CHILDREN)
        if verify:
            args.campaign_seed = campaign_seed(args.seed, k)
            wall, call = run_verify(args, out.parent, missing)
            call["campaign_seed"] = args.campaign_seed
        else:
            wall, call = run_figure(args.workload, args)
        worker_rss = pool_peak_rss_kb(args.workers) \
            if args.workers > 1 else 0
        shutdown_pools()                 # reaps the workers
        cpu = probe.cpu_seconds() - self0 - warm_cpu \
            + probe.cpu_seconds(resource.RUSAGE_CHILDREN) - children0
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     worker_rss)
        call.update(k=k, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss_kb / 1024.0)
        harness = call["harness"]
        harness["pool_spawn_s"] = pool_spawn
        harness["parallel_efficiency"] = (
            None if harness["busy_s"] is None
            else harness["busy_s"] / (wall * args.workers))
        record["calls"].append(call)
        k += 1
        now = time.perf_counter()
        # make another call only if one more like the last fits
        if now - start + (now - began) > args.budget:
            break
    if tracer is not None:
        import tracer as tracer_mod
        record["layers"] = tracer_mod.layer_metrics(tracer)
        if args.spans:
            pathlib.Path(args.spans).write_text(json.dumps(
                {"missing_hooks": tracer.missing,
                 "installed_hooks": tracer.installed,
                 "spans": tracer_mod.span_records(tracer)}))
    out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
