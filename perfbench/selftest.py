#!/usr/bin/env python3
"""Self-test of the benchmark's own checks (about a minute):

    python3 perfbench/selftest.py

1. a wrong digest pin makes ``run.py`` exit nonzero, naming the cell;
2. a reported violation (the planted ``lockdown`` checker fault on the
   ``mp_stress`` litmus program) makes it exit nonzero, naming the cells;
3. a verify program that fails (a planted worker ``crash`` on one
   combo of ``mp_stress``) makes it exit nonzero, naming the program;
4. only the benchmark's own program timeout counts as a cut, and on the
   pinned seed a pinned program that is cut is a failure;
5. a directory holding only ``BENCHMARK.json`` and ``perfbench/`` makes
   it exit nonzero without printing a result;
6. a hook whose target is gone is reported missing and its metrics are
   absent, without an exception.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "runs" / "selftest"
VERIFY = ["--workload", "verify-campaign", "--seed", "7", "--seconds", "1"]


def bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def wrong_pin():
    pins = json.loads((HERE / "pins.json").read_text())
    programs = pins["verify-campaign"]["campaigns"]["7"]
    programs["mp_stress"] = "0" * 16
    path = WORK / "pins-wrong.json"
    path.write_text(json.dumps(pins))
    code, _, err = bench(VERIFY + ["--pins", str(path)])
    return code != 0 and "verify/mp_stress: digest" in err, code, err


def violation():
    code, out, err = bench(VERIFY + ["--fault", "lockdown:verify/mp_stress/tso/*"])
    named = "violation: verify/mp_stress/tso/orinoco" in err
    verdict = json.loads(out.strip().splitlines()[-1])["correct"] is False
    return code != 0 and named and verdict, code, err


def program_error():
    code, out, err = bench(VERIFY + ["--fault",
                                     "crash:verify/mp_stress/tso/orinoco"])
    named = "error: verify/mp_stress" in err
    verdict = json.loads(out.strip().splitlines()[-1])["correct"] is False
    return code != 0 and named and verdict, code, err


def cut_rules():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import probe
    import run
    cut = {"errors": [{"error": f"timeout: {probe.CUT_MESSAGE}"}]}
    raised = {"errors": [{"error": "ZeroDivisionError: division by zero"}]}
    mixed = {"errors": cut["errors"] + raised["errors"]}
    pins = json.loads((HERE / "pins.json").read_text())
    pinned = pins["verify-campaign"]["campaigns"]["7"]
    call = {"campaign_seed": 7, "digests": dict(pinned),
            "cuts": ["mp_stress"], "errors": [], "violations": []}
    problems = run.check_call("verify-campaign",
                              run.WORKLOADS["verify-campaign"], call, pins,
                              pins["verify-campaign"]["seed"])
    ok = (probe.is_cut(cut) and not probe.is_cut(raised)
          and not probe.is_cut(mixed) and not probe.is_cut({"errors": []})
          and len(problems) == 1 and "verify/mp_stress: cut" in problems[0])
    return ok, 0, "\n".join(problems)


def bare_directory():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    code, out, err = bench(["--workload", "fig15-commit", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    return code != 0 and not out.strip(), code, err


def missing_hook():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracer
    tr = tracer.Tracer()
    tr.patch_method("repro.pipeline.stages", "CommitStage",
                    "no_such_method", lambda orig: orig)
    tr.patch_function("repro.workloads.suite", "no_such_function",
                      lambda orig: orig)
    tr.missing.append(
        "repro.pipeline.stages.CommitStage.locally_committable")
    metrics = tracer.layer_metrics(tr)
    ok = (len(tr.missing) == 3 and metrics["commit.legality_checks"] is None
          and metrics["commit.checks_per_commit"] is None
          and metrics["pipeline.construct_s"] == 0)
    return ok, 0, "\n".join(tr.missing)


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    env_knobs = [k for k in os.environ if k.startswith("REPRO_")]
    if env_knobs:
        print(f"note: {', '.join(env_knobs)} set; run.py strips them")
    failures = 0
    for check in (wrong_pin, violation, program_error, cut_rules,
                  bare_directory, missing_hook):
        ok, code, err = check()
        print(f"{'PASS' if ok else 'FAIL'} {check.__name__} (exit {code})")
        if not ok:
            failures += 1
            print(err[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
