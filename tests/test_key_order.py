"""The pipeline's schedule keys against the matrix reference model.

The pipeline schedules from state on the in-flight ops — the IQ age key
``(not critical, dispatch_stamp)``, per-producer dependent lists with
``iq_pending`` counts, and the SPEC frontier — instead of the
:mod:`repro.core` matrices.  These properties check, over random event
streams, that every answer the keys give is the answer the matrices
give:

* the age matrix's order (criticality encoding included) is the key
  order;
* every select policy grants the same entries, in the same order, and
  leaves the same rng state as the matrix-based selection it replaced
  (kept below as the reference);
* the wakeup matrix's ready vector is ``iq_pending == 0``;
* the merged age/SPEC matrix's safe vector is ``seq <= frontier``.
"""

import heapq
import random
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AgeMatrix, MergedCommitMatrix, WakeupMatrix
from repro.isa import OpClass
from repro.pipeline.resources import FUType
from repro.pipeline.stages.issue import IssueStage
from repro.pipeline.stages.squash import SquashUnit
from repro.pipeline.stages.state import (NONCRITICAL, InflightOp,
                                         PipelineState)
from repro.scheduler import SelectContext, make_select_policy

IQ_SIZE = 16
ROB_SIZE = 24
POLICIES = ("rand", "age", "mult", "orinoco", "ideal")


def age_key(stamp, critical):
    return stamp if critical else stamp + NONCRITICAL


# -- age order ---------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("dispatch", "group", "remove")),
                          st.integers(0, IQ_SIZE - 1),
                          st.lists(st.booleans(), min_size=1, max_size=4)),
                max_size=60))
def test_age_order_equals_key_order(stream):
    """Random dispatch / group-dispatch / issue-or-squash streams with
    random criticality: the matrix's full age order is the key order."""
    age = AgeMatrix(IQ_SIZE)
    keys = {}
    stamp = 0
    for kind, entry, flags in stream:
        free = [e for e in range(IQ_SIZE) if e not in keys]
        if kind == "remove":
            if keys:
                victim = sorted(keys)[entry % len(keys)]
                age.remove(victim)
                del keys[victim]
        else:
            k = 1 if kind == "dispatch" else len(flags)
            if len(free) < k:
                continue
            start = entry % len(free)
            entries = (free[start:] + free[:start])[:k]
            flags = flags[:k]
            for e, flag in zip(entries, flags):
                stamp += 1
                keys[e] = age_key(stamp, flag)
            if k == 1:
                age.dispatch(entries[0], flags[0])
            else:
                age.dispatch_group(entries, flags)
        assert age.age_order() == sorted(keys, key=keys.get)


# -- select policies ---------------------------------------------------------

def _request(entries):
    mask = np.zeros(IQ_SIZE, dtype=bool)
    mask[list(entries)] = True
    return mask


def _fill_greedy(fu_of, avail, width, granted, candidates):
    avail = list(avail)
    for entry in granted:
        avail[fu_of(entry)] -= 1
    for entry in candidates:
        if len(granted) >= width:
            break
        if entry in granted:
            continue
        fu = fu_of(entry)
        if avail[fu] > 0:
            granted.append(entry)
            avail[fu] -= 1
    return granted


def matrix_select(name, entries, fu_of, age_of, age, avail, width, rng):
    """The matrix-based selection the key-based policies replaced."""
    if name == "rand":
        candidates = list(entries)
        rng.shuffle(candidates)
        return _fill_greedy(fu_of, avail, width, [], candidates)
    if name == "ideal":
        return _fill_greedy(fu_of, avail, width, [],
                            sorted(entries, key=age_of))
    by_type = {}
    for entry in entries:
        by_type.setdefault(fu_of(entry), []).append(entry)
    if name == "age":
        granted = []
        oldest = age.select_single_oldest(_request(entries))
        if oldest.any():
            entry = int(oldest.argmax())
            if avail[fu_of(entry)] > 0:
                granted.append(entry)
        rest = [e for e in entries if e not in granted]
        rng.shuffle(rest)
        return _fill_greedy(fu_of, avail, width, granted, rest)
    if name == "mult":
        granted = []
        left = list(avail)
        for fu, members in sorted(by_type.items(), key=lambda kv: kv[0]):
            if left[fu] <= 0 or len(granted) >= width:
                continue
            oldest = age.select_single_oldest(_request(members))
            granted.append(int(oldest.argmax()))
            left[fu] -= 1
        rest = [e for e in entries if e not in granted]
        rng.shuffle(rest)
        return _fill_greedy(fu_of, avail, width, granted, rest)
    assert name == "orinoco"
    union = []
    for fu, members in by_type.items():
        cap = min(avail[fu], width)
        if cap <= 0:
            continue
        grants = age.select_oldest(_request(members), cap)
        union.extend(int(i) for i in np.flatnonzero(grants))
    if len(union) <= width:
        return union
    grants = age.select_oldest(_request(union), width)
    return [int(i) for i in np.flatnonzero(grants)]


@st.composite
def select_cases(draw):
    """A dispatched IQ (random order and criticality), a ready subset,
    FU types, availability, width and an rng seed."""
    entries = draw(st.lists(st.integers(0, IQ_SIZE - 1), unique=True,
                            min_size=1, max_size=IQ_SIZE))
    critical = {e: draw(st.booleans()) for e in entries}
    ready = sorted(draw(st.sets(st.sampled_from(entries), min_size=1)))
    fus = {e: draw(st.sampled_from(list(FUType))) for e in entries}
    avail = [draw(st.integers(0, 3)) for _ in FUType]
    width = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2 ** 16))
    return entries, critical, ready, fus, avail, width, seed


def _dispatched(entries, critical):
    age = AgeMatrix(IQ_SIZE)
    keys, stamps = {}, {}
    for stamp, entry in enumerate(entries, start=1):
        age.dispatch(entry, critical[entry])
        keys[entry] = age_key(stamp, critical[entry])
        stamps[entry] = stamp
    return age, keys, stamps


@settings(max_examples=150, deadline=None)
@given(select_cases())
def test_select_policies_match_matrix_reference(case):
    entries, critical, ready, fus, avail, width, seed = case
    age, keys, stamps = _dispatched(entries, critical)
    for name in POLICIES:
        ref_rng, key_rng = random.Random(seed), random.Random(seed)
        want = matrix_select(name, ready, fus.get, stamps.get, age,
                             avail, width, ref_rng)
        got = make_select_policy(name).select(SelectContext(
            entries=ready, fu_of=fus.get, key_of=keys.get,
            age_of=stamps.get, fu_available=avail, width=width,
            rng=key_rng))
        assert got == want, name
        assert key_rng.getstate() == ref_rng.getstate(), name


@settings(max_examples=150, deadline=None)
@given(select_cases())
def test_direct_age_grant_matches_matrix_reference(case):
    """The issue stage's direct AGE grant (no SelectContext) is the
    matrix AGE selection, grant order and rng use included."""
    entries, critical, ready, fus, avail, width, seed = case
    age, keys, stamps = _dispatched(entries, critical)
    iq_ops = {e: SimpleNamespace(fu=fus[e], age_key=keys[e])
              for e in entries}
    rng = random.Random(seed)
    state = SimpleNamespace(
        iq_ops=iq_ops, ready_set=set(ready), rng=rng,
        select_policy=make_select_policy("age"),
        config=SimpleNamespace(issue_width=width))
    stage = IssueStage(state, execute=None)
    ref_rng = random.Random(seed)
    want = matrix_select("age", ready, fus.get, stamps.get, age, avail,
                         width, ref_rng)
    got = stage._grant_age(min(ready, key=keys.get), avail)
    assert got == want
    assert rng.getstate() == ref_rng.getstate()


# -- wakeup ------------------------------------------------------------------

def _op(seq):
    return InflightOp(SimpleNamespace(op_class=OpClass.INT_ALU, seq=seq),
                      False)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("dispatch", "issue", "squash")),
                          st.integers(0, 1 << 16)),
                max_size=60))
def test_wakeup_ready_equals_zero_pending(stream):
    """Dispatch on random in-IQ producers, issue awake entries, squash
    any entry: ``WakeupMatrix.ready()`` is ``iq_pending == 0``."""
    wakeup = WakeupMatrix(IQ_SIZE)
    state = SimpleNamespace(
        iq_ops={}, ready_set=set(), shadow=None,
        iq_queue=SimpleNamespace(free=lambda entry: None),
        stats=SimpleNamespace(wakeup_ops=0),
        config=SimpleNamespace(issue_width=4),
        select_policy=None)
    issue = IssueStage(state, execute=None)
    squash = SquashUnit(state)
    iq_ops = state.iq_ops
    seq = 0
    for kind, pick in stream:
        live = sorted(iq_ops)
        if kind == "dispatch":
            free = [e for e in range(IQ_SIZE) if e not in iq_ops]
            if not free:
                continue
            seq += 1
            op = _op(seq)
            op.iq_entry = free[pick % len(free)]
            op.in_iq = True
            rnd = random.Random(pick)
            producers = [iq_ops[e] for e in live if rnd.random() < 0.3]
            for producer in producers:
                producer.iq_dependents.append(op)
            op.iq_pending = len(producers)
            wakeup.dispatch(op.iq_entry, [p.iq_entry for p in producers])
            iq_ops[op.iq_entry] = op
        elif kind == "issue":
            awake = [e for e in live if iq_ops[e].iq_pending == 0]
            if not awake:
                continue
            entry = awake[pick % len(awake)]
            issue._leave_iq([iq_ops[entry]])
            wakeup.issue([entry])
        elif live:
            entry = live[pick % len(live)]
            op = iq_ops.pop(entry)
            squash.leave_iq_squash(op)
            wakeup.squash([entry])
        ready = wakeup.ready()
        for entry in range(IQ_SIZE):
            op = iq_ops.get(entry)
            assert bool(ready[entry]) == \
                (op is not None and op.iq_pending == 0)


# -- SPEC frontier -----------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(("dispatch", "dispatch", "resolve", "remove",
                     "squash")),
    st.integers(0, 1 << 16), st.booleans()), max_size=80))
def test_merged_safe_equals_seq_within_frontier(stream):
    """Dispatch in program order (refetching squashed seqs), resolve,
    out-of-order remove and squash-younger streams: the merged matrix's
    safe vector is ``seq <= spec_frontier()`` over the live entries."""
    merged = MergedCommitMatrix(ROB_SIZE)
    state = SimpleNamespace(spec_live=set(), spec_heap=[], shadow=None)
    window = {}                          # seq -> op
    next_seq = 0
    for kind, pick, flag in stream:
        live = sorted(window)
        if kind == "dispatch":
            used = {op.rob_entry for op in window.values()}
            free = [e for e in range(ROB_SIZE) if e not in used]
            if not free:
                continue
            op = _op(next_seq)
            op.rob_entry = free[pick % len(free)]
            op.spec_resolved = not flag
            if flag:
                state.spec_live.add(next_seq)
                heapq.heappush(state.spec_heap, next_seq)
            merged.dispatch(op.rob_entry, flag)
            window[next_seq] = op
            next_seq += 1
        elif not live:
            continue
        elif kind == "resolve":
            op = window[live[pick % len(live)]]
            was_spec = not op.spec_resolved
            PipelineState.resolve_spec(state, op)
            if was_spec:
                merged.resolve(op.rob_entry)
        elif kind == "remove":
            op = window.pop(live[pick % len(live)])
            state.spec_live.discard(op.seq)
            merged.remove(op.rob_entry)
        else:
            # squash this seq and everything younger, then refetch
            # from it: seqs come back, stale heap copies must not count
            first = live[pick % len(live)]
            for seq in reversed(live):
                if seq < first:
                    break
                op = window.pop(seq)
                state.spec_live.discard(seq)
                merged.remove(op.rob_entry)
            next_seq = first
        frontier = PipelineState.spec_frontier(state)
        safe = merged.can_commit(np.ones(ROB_SIZE, dtype=bool))
        for seq, op in window.items():
            assert bool(safe[op.rob_entry]) == (seq <= frontier), \
                (seq, frontier)
