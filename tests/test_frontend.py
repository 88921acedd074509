"""Branch predictors, BTB, RAS, and the trace-driven fetch unit."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import (BimodalPredictor, BranchTargetBuffer, FetchUnit,
                            GsharePredictor, ReturnAddressStack,
                            TagePredictor, make_predictor)
from repro.isa import ProgramBuilder, trace_program


class TestDirectionPredictors:
    @pytest.mark.parametrize("cls", [BimodalPredictor, GsharePredictor])
    def test_learns_constant_direction(self, cls):
        p = cls(entries=256)
        for _ in range(8):
            p.update(12, True)
        assert p.predict(12)

    def test_bimodal_counters_saturate_with_hysteresis(self):
        p = BimodalPredictor(entries=16)
        for _ in range(10):
            p.update(3, True)
        assert max(p.table) == 3
        p.update(3, False)
        assert p.predict(3)      # still taken after one miss
        for _ in range(10):
            p.update(3, False)
        assert min(p.table) == 0 and not p.predict(3)

    def test_bimodal_power_of_two_required(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=100)

    def test_gshare_uses_history(self):
        p = GsharePredictor(entries=1024, history_bits=4)
        # alternating pattern at one PC: gshare can learn it, bimodal not
        for _ in range(64):
            p.update(5, True)
            p.update(5, False)
        first = p.predict(5)
        p.update(5, first)
        second = p.predict(5)
        assert isinstance(first, bool) and isinstance(second, bool)

    def test_tage_learns_loop_pattern(self):
        p = TagePredictor(num_tables=4, table_entries=128)
        # loop taken 7 times then not taken, repeated
        mispredicts = 0
        for rep in range(80):
            for i in range(8):
                taken = i != 7
                if p.predict(42) != taken:
                    mispredicts += 1
                p.update(42, taken)
        # after warmup TAGE should track the period-8 pattern well
        last_round_mispredicts = 0
        for i in range(8):
            taken = i != 7
            if p.predict(42) != taken:
                last_round_mispredicts += 1
            p.update(42, taken)
        assert last_round_mispredicts <= 1

    def test_tage_geometric_history_lengths(self):
        p = TagePredictor(num_tables=5, min_history=4, max_history=64)
        lengths = p.history_lengths
        assert lengths[0] == 4 and lengths[-1] == 64
        assert all(a < b for a, b in zip(lengths, lengths[1:]))


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(sets=16, ways=2)
        assert btb.lookup(100) is None
        btb.insert(100, 200)
        assert btb.lookup(100) == 200

    def test_lru_eviction_within_set(self):
        btb = BranchTargetBuffer(sets=1, ways=2)
        btb.insert(1, 10)
        btb.insert(2, 20)
        btb.lookup(1)            # 1 is now MRU
        btb.insert(3, 30)        # evicts 2
        assert btb.lookup(2) is None
        assert btb.lookup(1) == 10


# -- flat tables vs per-entry reference models ------------------------------
#
# The predictors and the BTB store their state as flat int lists and
# lazily created sets.  These small per-entry models are the
# straightforward object-per-entry implementation; the property tests
# drive both with the same random stream and compare every prediction
# and the full table contents after every update.

class _RefCounter:
    def __init__(self, bits, value):
        self.max = (1 << bits) - 1
        self.value = value

    def update(self, taken):
        self.value = min(self.max, self.value + 1) if taken \
            else max(0, self.value - 1)


class _RefBimodal:
    def __init__(self, entries, history_bits=0):
        self.entries = entries
        self.history_bits = history_bits
        self.history = 0
        self.table = [_RefCounter(2, 2) for _ in range(entries)]

    def _entry(self, pc):
        return self.table[(pc ^ self.history) % self.entries]

    def predict(self, pc):
        return self._entry(pc).value >= 2

    def update(self, pc, taken):
        self._entry(pc).update(taken)
        if self.history_bits:
            self.history = (self.history * 2 + taken) \
                % (1 << self.history_bits)


class _RefTageEntry:
    def __init__(self):
        self.tag = 0
        self.counter = _RefCounter(3, 4)
        self.useful = _RefCounter(2, 0)


class _RefTage:
    def __init__(self, lengths, table_entries, max_history, tag_bits,
                 base_entries, useful_reset_period, **_):
        self.base = _RefBimodal(base_entries)
        self.table_entries = table_entries
        self.tag_bits = tag_bits
        self.period = useful_reset_period
        self.lengths = lengths          # configuration, not table state
        self.tables = [[_RefTageEntry() for _ in range(table_entries)]
                       for _ in lengths]
        self.history = 0
        self.history_bits = max_history
        self.updates = 0

    def _fold(self, length, bits):
        history = self.history % (1 << length)
        folded = 0
        while history:
            folded ^= history % (1 << bits)
            history >>= bits
        return folded

    def _slot(self, table, pc):
        length = self.lengths[table]
        bits = self.table_entries.bit_length() - 1
        index = (pc ^ (pc >> bits) ^ self._fold(length, bits)) \
            % self.table_entries
        tag = (pc ^ self._fold(length, self.tag_bits)
               ^ (self._fold(length, self.tag_bits - 1) << 1)) \
            % (1 << self.tag_bits)
        return self.tables[table][index], tag

    def predict(self, pc):
        hits = [(t, entry) for t in reversed(range(len(self.tables)))
                for entry, tag in [self._slot(t, pc)] if entry.tag == tag]
        base = self.base.predict(pc)
        self.provider = hits[0] if hits else None
        self.provider_pred = hits[0][1].counter.value >= 4 if hits else base
        self.alt_pred = hits[1][1].counter.value >= 4 if len(hits) > 1 \
            else base
        return self.provider_pred

    def update(self, pc, taken):
        if self.provider is not None:
            table, entry = self.provider
            mispredicted = self.provider_pred != taken
            if self.provider_pred != self.alt_pred:
                entry.useful.update(self.provider_pred == taken)
            entry.counter.update(taken)
        else:
            mispredicted = self.base.predict(pc) != taken
        self.base.update(pc, taken)
        if mispredicted:
            start = 0 if self.provider is None else table + 1
            path = [self._slot(t, pc) for t in range(start, len(self.tables))]
            victim = next((slot for slot in path
                           if slot[0].useful.value == 0), None)
            if victim is not None:
                victim[0].tag = victim[1]
                victim[0].counter.value = 4 if taken else 3
            else:
                for slot_entry, _ in path:
                    slot_entry.useful.update(False)
        self.history = (self.history * 2 + taken) % (1 << self.history_bits)
        self.updates += 1
        if self.updates % self.period == 0:
            for table in self.tables:
                for slot_entry in table:
                    slot_entry.useful.value >>= 1


@st.composite
def _branches(draw):
    """A 400-branch stream over a small pool of PCs, each biased taken,
    not-taken or random, so components allocate, gain useful credit and
    alias — a uniform stream would rarely reach those paths."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    pcs = draw(st.integers(1, 48))
    bias = [rng.choice((0.05, 0.5, 0.95)) for _ in range(pcs)]
    stream = []
    for _ in range(400):
        pc = rng.randrange(pcs)
        stream.append((pc, rng.random() < bias[pc]))
    return stream


class TestFlatTablesMatchReference:
    @settings(max_examples=60, deadline=None)
    @given(stream=_branches(), entries=st.sampled_from([4, 16, 64]),
           history_bits=st.integers(1, 8))
    def test_bimodal_and_gshare(self, stream, entries, history_bits):
        pairs = [(BimodalPredictor(entries), _RefBimodal(entries)),
                 (GsharePredictor(entries, history_bits),
                  _RefBimodal(entries, history_bits))]
        for flat, ref in pairs:
            for pc, taken in stream:
                assert flat.predict(pc) == ref.predict(pc)
                flat.update(pc, taken)
                ref.update(pc, taken)
                assert flat.table == [c.value for c in ref.table]
                assert getattr(flat, "history", 0) == ref.history

    @settings(max_examples=60, deadline=None)
    @given(stream=_branches(), num_tables=st.integers(1, 5),
           table_entries=st.sampled_from([4, 8, 32]),
           min_history=st.integers(1, 4), extra_history=st.integers(0, 24),
           tag_bits=st.integers(2, 9), base_entries=st.sampled_from([8, 64]),
           period=st.integers(1, 24))
    def test_tage(self, stream, num_tables, table_entries, min_history,
                  extra_history, tag_bits, base_entries, period):
        params = dict(num_tables=num_tables, table_entries=table_entries,
                      min_history=min_history,
                      max_history=min_history + extra_history,
                      tag_bits=tag_bits, base_entries=base_entries,
                      useful_reset_period=period)
        flat = TagePredictor(**params)
        ref = _RefTage(flat.history_lengths, **params)
        for pc, taken in stream:
            assert flat.predict(pc) == ref.predict(pc)
            flat.update(pc, taken)
            ref.update(pc, taken)
            assert flat.base.table == [c.value for c in ref.base.table]
            assert flat.tags == [[e.tag for e in t] for t in ref.tables]
            assert flat.ctrs == [[e.counter.value for e in t]
                                 for t in ref.tables]
            assert flat.useful == [[e.useful.value for e in t]
                                   for t in ref.tables]
            assert flat.history == ref.history

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), pcs=st.integers(1, 24),
           sets=st.sampled_from([1, 4, 16]), ways=st.integers(1, 4))
    def test_btb_lru(self, seed, pcs, sets, ways):
        rng = random.Random(seed)
        ops = [(rng.random() < 0.5, rng.randrange(pcs), rng.randrange(1000))
               for _ in range(200)]
        btb = BranchTargetBuffer(sets=sets, ways=ways)
        ref = [OrderedDict() for _ in range(sets)]     # pc -> target
        hits = misses = 0
        touched = set()
        for is_insert, pc, target in ops:
            entry_set = ref[pc % sets]
            if is_insert:
                btb.insert(pc, target)
                touched.add(pc % sets)
                entry_set.pop(pc, None)
                if len(entry_set) >= ways:
                    del entry_set[next(iter(entry_set))]
                entry_set[pc] = target
            else:
                expected = entry_set.get(pc)
                if expected is None:
                    misses += 1
                else:
                    hits += 1
                    entry_set.move_to_end(pc)
                assert btb.lookup(pc) == expected
            assert [list((s or {}).items()) for s in btb._table] == \
                [list(s.items()) for s in ref]
            assert (btb.hits, btb.misses) == (hits, misses)
            # only sets that took an insert exist
            assert {i for i, s in enumerate(btb._table)
                    if s is not None} == touched

    def test_btb_lookup_of_untouched_set_allocates_nothing(self):
        btb = BranchTargetBuffer(sets=8, ways=2)
        for pc in range(32):
            assert btb.lookup(pc) is None
        assert btb._table == [None] * 8
        btb.insert(5, 50)
        assert [i for i, s in enumerate(btb._table) if s is not None] == [5]


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack(depth=4)
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None


def _loop_trace(iters=20):
    b = ProgramBuilder("loop")
    b.li("x1", 0).li("x2", iters)
    b.label("loop")
    b.addi("x1", "x1", 1)
    b.blt("x1", "x2", "loop")
    b.halt()
    return trace_program(b.build())


class TestPredictorFacade:
    def test_oracle_never_mispredicts(self):
        trace = _loop_trace()
        predictor = make_predictor("oracle")
        for instr in trace:
            if instr.is_branch:
                assert not predictor.predict(instr)
        assert predictor.accuracy() == 1.0

    def test_tage_learns_the_loop(self):
        trace = _loop_trace(iters=50)
        predictor = make_predictor("tage")
        mispredicts = sum(predictor.predict(i) for i in trace if i.is_branch)
        assert mispredicts <= 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_predictor("nope")

    def test_jalr_return_predicted_by_ras(self):
        b = ProgramBuilder("call")
        b.jal("x1", "fn")
        b.halt()
        b.label("fn")
        b.jalr("x0", "x1")
        trace = trace_program(b.build())
        predictor = make_predictor("tage")
        results = [predictor.predict(i) for i in trace if i.is_branch]
        assert results == [False, False]   # call then correctly-popped return


class TestFetchUnit:
    def test_fetch_width_respected(self):
        trace = _loop_trace()
        fetch = FetchUnit(trace, make_predictor("oracle"), width=2)
        group = fetch.fetch(0)
        assert len(group) <= 2

    def test_taken_branch_ends_group(self):
        trace = _loop_trace()
        fetch = FetchUnit(trace, make_predictor("oracle"), width=8)
        seen = []
        cycle = 0
        while not fetch.exhausted() and cycle < 100:
            group = fetch.fetch(cycle)
            if group:
                seen.append(group)
            cycle += 1
        for group in seen:
            takens = [g.instr for g in group
                      if g.instr.is_branch and g.instr.taken]
            if takens:
                assert group[-1].instr is takens[-1]

    def test_mispredict_stalls_until_resolved(self):
        trace = _loop_trace(iters=4)
        predictor = make_predictor("btfn")   # predicts not-taken: wrong
        fetch = FetchUnit(trace, predictor, width=4, redirect_penalty=3,
                          model_wrong_path=False)
        group = fetch.fetch(0)
        branch = next(g for g in group if g.mispredicted)
        assert fetch.fetch(1) == []          # stalled
        fetch.branch_resolved(branch.instr.seq, cycle=5)
        assert fetch.fetch(6) == []          # redirect penalty
        assert fetch.fetch(8) != []

    def test_wrong_path_emitted_while_stalled(self):
        trace = _loop_trace(iters=4)
        predictor = make_predictor("btfn")
        fetch = FetchUnit(trace, predictor, width=4,
                          model_wrong_path=True)
        fetch.fetch(0)                       # hits the mispredict
        wrong = fetch.fetch(1)
        assert wrong and all(g.wrong_path for g in wrong)
        assert all(g.instr.seq < 0 for g in wrong)

    def test_squash_to_rewinds(self):
        trace = _loop_trace()
        fetch = FetchUnit(trace, make_predictor("oracle"), width=4)
        fetch.fetch(0)
        fetch.squash_to(0, cycle=10)
        group = fetch.fetch(10 + fetch.redirect_penalty)
        assert group[0].instr.seq == 1
