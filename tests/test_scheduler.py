"""Issue selection policies over the age order (age keys)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import FUType
from repro.pipeline.stages.state import NONCRITICAL
from repro.scheduler import (AgeSelect, IdealSelect, MultSelect,
                             OrinocoSelect, RandomSelect, SelectContext,
                             make_select_policy)


def age_keys(dispatch_order, critical=()):
    """Age key per entry: the age matrix's order, critical entries
    first, each group in dispatch order."""
    return {entry: i + (0 if entry in critical else NONCRITICAL)
            for i, entry in enumerate(dispatch_order)}


def make_ctx(entries_with_fu, dispatch_order, fu_available, width,
             critical=()):
    """entries_with_fu: dict entry -> FUType; dispatch_order: list of
    entries oldest-first."""
    keys = age_keys(dispatch_order, critical)
    order_index = {entry: i for i, entry in enumerate(dispatch_order)}
    return SelectContext(
        entries=sorted(entries_with_fu),
        fu_of=lambda e: entries_with_fu[e],
        key_of=lambda e: keys[e],
        age_of=lambda e: order_index[e],
        fu_available=fu_available,
        width=width,
        rng=random.Random(1))


FULL_FU = {FUType.ALU: 3, FUType.MULDIV: 1, FUType.FPU: 2,
           FUType.LOAD: 1, FUType.STORE: 1}


class TestOrinocoSelect:
    def test_selects_width_oldest(self):
        ctx = make_ctx({e: FUType.ALU for e in (1, 2, 3)},
                       dispatch_order=[3, 1, 2],
                       fu_available=FULL_FU, width=2)
        granted = OrinocoSelect().select(ctx)
        assert sorted(granted) == [1, 3]

    def test_respects_fu_caps(self):
        ctx = make_ctx({1: FUType.MULDIV, 2: FUType.MULDIV, 3: FUType.ALU},
                       dispatch_order=[1, 2, 3],
                       fu_available=FULL_FU, width=4)
        granted = OrinocoSelect().select(ctx)
        assert 1 in granted and 3 in granted
        assert 2 not in granted          # only one MULDIV unit

    def test_clips_to_width_globally_oldest(self):
        fus = {1: FUType.ALU, 2: FUType.ALU, 3: FUType.FPU, 4: FUType.LOAD}
        ctx = make_ctx(fus, dispatch_order=[1, 2, 3, 4],
                       fu_available=FULL_FU, width=2)
        granted = OrinocoSelect().select(ctx)
        assert sorted(granted) == [1, 2]

    def test_zero_fu_type_skipped(self):
        ctx = make_ctx({1: FUType.FPU}, dispatch_order=[1],
                       fu_available={**FULL_FU, FUType.FPU: 0}, width=4)
        assert OrinocoSelect().select(ctx) == []


class TestAgeSelect:
    def test_oldest_always_granted(self):
        ctx = make_ctx({e: FUType.ALU for e in (5, 6, 7, 8)},
                       dispatch_order=[7, 5, 8, 6],
                       fu_available=FULL_FU, width=2)
        granted = AgeSelect().select(ctx)
        assert 7 in granted

    def test_oldest_skipped_when_fu_busy(self):
        ctx = make_ctx({1: FUType.MULDIV, 2: FUType.ALU},
                       dispatch_order=[1, 2],
                       fu_available={**FULL_FU, FUType.MULDIV: 0}, width=2)
        granted = AgeSelect().select(ctx)
        assert granted == [2]


class TestMultSelect:
    def test_oldest_per_type_granted(self):
        fus = {1: FUType.ALU, 2: FUType.ALU, 3: FUType.FPU, 4: FUType.FPU}
        ctx = make_ctx(fus, dispatch_order=[2, 4, 1, 3],
                       fu_available=FULL_FU, width=2)
        granted = MultSelect().select(ctx)
        assert 2 in granted and 4 in granted


class TestRandomSelect:
    def test_bounded_by_width_and_fu(self):
        fus = {e: FUType.ALU for e in range(8)}
        ctx = make_ctx(fus, dispatch_order=list(range(8)),
                       fu_available=FULL_FU, width=4)
        granted = RandomSelect().select(ctx)
        assert len(granted) == 3        # ALU cap

    def test_deterministic_with_seed(self):
        fus = {e: FUType.ALU for e in range(8)}
        results = []
        for _ in range(2):
            ctx = make_ctx(fus, dispatch_order=list(range(8)),
                           fu_available=FULL_FU, width=2)
            results.append(RandomSelect().select(ctx))
        assert results[0] == results[1]


class TestCriticality:
    def test_critical_beats_older_noncritical(self):
        ctx = make_ctx({1: FUType.ALU, 2: FUType.ALU},
                       dispatch_order=[1, 2],     # 1 older
                       fu_available={**FULL_FU, FUType.ALU: 1}, width=1,
                       critical={2})
        granted = OrinocoSelect().select(ctx)
        assert granted == [2]


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("rand", RandomSelect), ("age", AgeSelect), ("mult", MultSelect),
        ("orinoco", OrinocoSelect), ("cri", OrinocoSelect),
        ("ideal", IdealSelect), ("shift", IdealSelect)])
    def test_mapping(self, name, cls):
        assert isinstance(make_select_policy(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_select_policy("fifo")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orinoco_equals_ideal_oracle(data):
    """Property (§3.1): the bit-count selection over the age order
    grants exactly what an oracle sorting by true age would, under any
    mix of FU types, availability, and width."""
    size = 24
    count = data.draw(st.integers(min_value=1, max_value=16))
    entries = data.draw(st.lists(
        st.integers(min_value=0, max_value=size - 1), unique=True,
        min_size=count, max_size=count))
    fus = {e: data.draw(st.sampled_from(list(FUType))) for e in entries}
    avail = {fu: data.draw(st.integers(min_value=0, max_value=3))
             for fu in FUType}
    width = data.draw(st.integers(min_value=1, max_value=8))
    order = list(entries)
    # dispatch order = a permutation drawn by shuffling deterministically
    perm = data.draw(st.permutations(order))

    def build(policy):
        keys = age_keys(perm)
        index = {e: i for i, e in enumerate(perm)}
        ctx = SelectContext(entries=sorted(entries),
                            fu_of=lambda e: fus[e],
                            key_of=lambda e: keys[e],
                            age_of=lambda e: index[e],
                            fu_available=avail,
                            width=width, rng=random.Random(0))
        return policy.select(ctx)

    assert sorted(build(OrinocoSelect())) == sorted(build(IdealSelect()))
