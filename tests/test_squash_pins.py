"""Field-identical SimStats pins over the squash-heavy targets.

The golden set in ``tests/data/golden_simstats.json`` covers two
configurations on three workloads; it does not reach the squash paths
that touch scheduler state hardest.  These pins do:

* ``sys.drain`` raises precise exceptions (``squash_from`` with
  ``resume_after``), so every commit policy must drop the squashed
  entries from its SPEC/commit state;
* ``perl.branchy`` mispredicts often (wrong-path squash).

Cells cover all 10 commit policies under the ``age`` scheduler, the
``rand``/``mult``/``orinoco``/``cri``/``ideal`` schedulers under both
``ioc`` and ``orinoco`` commit, and one TSO ``orinoco`` cell.  The
``cri`` cells are tagged from an ``age`` profile run, as Figure 14
does, so the criticality encoding is exercised.

Regenerate (only when the timing model changes on purpose, together
with an ``ENGINE_VERSION`` bump)::

    PYTHONPATH=src python tests/test_squash_pins.py > tests/data/squash_pins.json
"""

import dataclasses
import json
import pathlib
import sys

import pytest

from repro.criticality import CriticalityTagger, clear_tags
from repro.pipeline import O3Core, base_config
from repro.workloads import build_trace

PIN_PATH = pathlib.Path(__file__).parent / "data" / "squash_pins.json"
WORKLOADS = ("sys.drain", "perl.branchy")
SCALE = 0.1


def pin_configs():
    """``label -> CoreConfig`` for every pinned configuration."""
    from repro.pipeline.config import COMMITS
    configs = {}
    for commit in COMMITS:
        configs[f"age+{commit}"] = base_config(scheduler="age",
                                               commit=commit)
    for scheduler in ("rand", "mult", "orinoco", "cri", "ideal"):
        for commit in ("ioc", "orinoco"):
            configs[f"{scheduler}+{commit}"] = base_config(
                scheduler=scheduler, commit=commit)
    configs["tso:orinoco+orinoco"] = base_config(
        scheduler="orinoco", commit="orinoco", tso=True)
    return configs


def run_cell(config, workload):
    """SimStats of one pinned cell, as a plain dict."""
    trace = build_trace(workload, SCALE)
    if config.criticality:
        profiler = O3Core(trace, base_config(scheduler="age",
                                             commit=config.commit))
        profiler.run()
        tagger = CriticalityTagger()
        tagger.feed_profile(profiler.pc_l1_misses, profiler.pc_mispredicts)
        try:
            tagger.tag(trace)
            stats = O3Core(trace, config).run()
        finally:
            clear_tags(trace)
    else:
        stats = O3Core(trace, config).run()
    return json.loads(json.dumps(dataclasses.asdict(stats)))


CELLS = [(label, workload) for label in pin_configs()
         for workload in WORKLOADS]


@pytest.fixture(scope="module")
def pins():
    return json.loads(PIN_PATH.read_text())


def test_pin_set_complete(pins):
    assert sorted(pins) == sorted(pin_configs())
    for label in pins:
        assert sorted(pins[label]) == sorted(WORKLOADS)


@pytest.mark.parametrize("label,workload", CELLS,
                         ids=[f"{label}/{w}" for label, w in CELLS])
def test_squash_pin(pins, label, workload):
    got = run_cell(pin_configs()[label], workload)
    assert got == pins[label][workload], \
        f"{label}/{workload} diverged from its pinned SimStats"


def test_pins_exercise_squashes(pins):
    """The pins are only worth keeping while they reach the paths they
    were recorded for."""
    drain = [pins[label]["sys.drain"]["exceptions"] for label in pins]
    assert min(drain) > 0
    branchy = [pins[label]["perl.branchy"]["wrong_path_dispatched"]
               for label in pins]
    assert min(branchy) > 0


if __name__ == "__main__":
    out = {label: {w: run_cell(config, w) for w in WORKLOADS}
           for label, config in pin_configs().items()}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
