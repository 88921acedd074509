"""The issue stage's direct AGE grant against the select policy and the
age matrix.

With the AGE scheduler the issue stage skips ``SelectContext`` and
grants straight from the oldest ready entry: the smallest age key
``(not critical, dispatch_stamp)``, an argmin over stamps.
``IssueStage._grant_age`` must then replay ``AgeSelect.select``
exactly — the granted entries, their order, and the rng entropy spent
on the tie-break shuffle — and the argmin must be the entry the age
matrix's single-oldest select picks, criticality encoding included.

A directed test pins the harness-level contract: one in-process batch
mixing a direct-grant (AGE) configuration with a policy-path (RAND)
configuration returns SimStats field-identical to serial runs.
"""

import dataclasses
import random
from types import SimpleNamespace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import AgeMatrix                          # noqa: E402
from repro.harness import run_suite                       # noqa: E402
from repro.harness.parallel import Job                    # noqa: E402
from repro.pipeline import O3Core, base_config            # noqa: E402
from repro.pipeline.resources import FUType               # noqa: E402
from repro.pipeline.stages.issue import IssueStage        # noqa: E402
from repro.pipeline.stages.state import NONCRITICAL       # noqa: E402
from repro.scheduler import AgeSelect, SelectContext      # noqa: E402
from repro.workloads import build_trace                   # noqa: E402

IQ_SIZE = 16


def _make_stage(iq_ops, ready, width, rng):
    """A real IssueStage over a duck-typed minimal pipeline state."""
    state = SimpleNamespace(
        iq_ops=iq_ops,
        ready_set=ready,
        rng=rng,
        select_policy=AgeSelect(),
        config=SimpleNamespace(issue_width=width))
    return IssueStage(state, execute=None)


@st.composite
def select_cases(draw):
    """Random (dispatch order, criticality, ready set, FUs, availability,
    width, rng seed)."""
    entries = sorted(draw(st.sets(st.integers(0, IQ_SIZE - 1),
                                  min_size=1, max_size=IQ_SIZE)))
    order = draw(st.permutations(entries))
    critical = {entry: draw(st.booleans()) for entry in entries}
    ready = sorted(draw(st.sets(st.sampled_from(entries), min_size=1)))
    fus = {entry: draw(st.sampled_from(list(FUType)))
           for entry in entries}
    avail = [draw(st.integers(0, 2)) for _ in FUType]
    width = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return order, critical, ready, fus, avail, width, seed


def _keys(order, critical):
    return {entry: stamp if critical[entry] else stamp + NONCRITICAL
            for stamp, entry in enumerate(order, start=1)}


@settings(max_examples=120, deadline=None)
@given(select_cases())
def test_stamp_argmin_grant_matches_age_select(case):
    """Direct grant from the key argmin ≡ AgeSelect: grants, order, and
    rng state."""
    order, critical, ready, fus, avail, width, seed = case
    keys = _keys(order, critical)
    iq_ops = {entry: SimpleNamespace(fu=fus[entry], age_key=keys[entry])
              for entry in order}

    rng_policy = random.Random(seed)
    rng_direct = random.Random(seed)
    want = AgeSelect().select(SelectContext(
        entries=list(ready),
        fu_of=lambda e: iq_ops[e].fu,
        key_of=keys.get,
        fu_available=list(avail),
        width=width,
        rng=rng_policy))

    stage = _make_stage(iq_ops, set(ready), width, rng_direct)
    got = stage._grant_age(min(ready, key=keys.get), list(avail))

    assert got == want, (
        f"grants diverged: direct {got} vs AgeSelect {want} "
        f"(ready={ready}, order={order}, avail={avail}, width={width})")
    assert rng_policy.getstate() == rng_direct.getstate(), (
        "tie-break shuffle consumed different rng entropy")


@settings(max_examples=60, deadline=None)
@given(select_cases())
def test_stamp_argmin_is_matrix_oldest(case):
    """The age-key argmin picks exactly the matrix's single-oldest ready
    entry (critical entries first, then dispatch order)."""
    order, critical, ready, _fus, _avail, _width, _seed = case
    keys = _keys(order, critical)
    matrix = AgeMatrix(IQ_SIZE)
    for entry in order:
        matrix.dispatch(entry, critical[entry])
    request = np.zeros(IQ_SIZE, dtype=bool)
    request[ready] = True
    grant = matrix.select_single_oldest(request)
    assert grant.sum() == 1
    assert min(ready, key=keys.get) == int(grant.argmax())


class TestMixedBatchIdentity:
    """A direct-grant cell and a policy-path cell, run in one in-process
    batch, must both stay field-identical to serial."""

    def test_mixed_batch_matches_serial(self):
        trace = build_trace("gcc.mix", 0.2)
        direct_config = base_config(scheduler="age", commit="ioc")
        policy_config = base_config(scheduler="rand", commit="ioc")
        serial = {
            "direct": O3Core(trace, direct_config).run(),
            "policy": O3Core(trace, policy_config).run(),
        }
        results = run_suite([
            Job("direct", direct_config, "gcc.mix", 0.2, trace=trace),
            Job("policy", policy_config, "gcc.mix", 0.2, trace=trace),
        ], workers=1)
        assert list(results) == ["direct", "policy"]
        for label, reference in serial.items():
            got = dataclasses.asdict(results[label].stats["gcc.mix"])
            want = dataclasses.asdict(reference)
            assert got == want, (
                f"{label} diverged: "
                f"{[k for k in want if got.get(k) != want[k]][:8]}")
