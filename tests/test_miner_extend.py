"""Extension miner: oracle equivalence and subtree-cut safety."""

from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luspm import (
    MiningConfig,
    MiningShadow,
    QSequenceDatabase,
    UtilityCounter,
    build_bit_index,
    compute_utility,
    generate_synthetic,
    get_utility_chain,
    mine_baseline,
    mine_extend,
    mine_shrink,
)

from conftest import random_database


class CutRecordingShadow(MiningShadow):
    def __init__(self):
        self.cuts = []

    def ebisps_cut(self, accumulated, residual):
        self.cuts.append((accumulated, residual))


def _utility(pattern, db, index):
    return compute_utility(get_utility_chain(pattern, db, index))


class TestEquivalence:
    def test_reference_database(self, ref_db):
        for min_util in (5, 10, 20, 40, 104):
            cfg = MiningConfig(min_util=min_util)
            assert mine_extend(ref_db, cfg).as_set() == mine_baseline(
                ref_db, cfg
            ).as_set()

    def test_reference_with_max_len(self, ref_db):
        for max_len in (1, 2, 3):
            cfg = MiningConfig(min_util=20, max_len=max_len)
            assert mine_extend(ref_db, cfg).as_set() == mine_baseline(
                ref_db, cfg
            ).as_set()

    @given(
        st.integers(min_value=0, max_value=100_000),
        st.sampled_from([1, 3, 6, 12, 25, 60]),
        st.sampled_from([None, 1, 2, 4]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_databases(self, seed, min_util, max_len):
        db = random_database(seed)
        cfg = MiningConfig(min_util=min_util, max_len=max_len)
        assert mine_extend(db, cfg).as_set() == mine_baseline(db, cfg).as_set()

    def test_only_one_thread_is_accepted(self, ref_db):
        cfg = MiningConfig(min_util=30)
        expected = mine_baseline(ref_db, cfg).as_set()
        for miner in (mine_shrink, mine_extend):
            with pytest.raises(ValueError):
                miner(ref_db, cfg, threads=2)
            assert miner(ref_db, cfg, threads=1).as_set() == expected

    def test_recursion_limit_is_restored(self, ref_db):
        cfg = MiningConfig(min_util=30)
        saved = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(4321)
            for miner in (mine_shrink, mine_extend):
                miner(ref_db, cfg)
                assert sys.getrecursionlimit() == 4321
        finally:
            sys.setrecursionlimit(saved)


class TestCounter:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_never_more_chains_than_baseline_candidates(self, seed):
        db = random_database(seed)
        cfg = MiningConfig(min_util=10)
        base_counter = UtilityCounter()
        extend_counter = UtilityCounter()
        mine_baseline(db, cfg, base_counter)
        mine_extend(db, cfg, extend_counter)
        assert extend_counter.count <= base_counter.count

    def test_no_more_chains_than_shrink_in_any_sequence_order(self):
        # One root's chain bounds (4, 2, 2, 4) at 7 and admits it; other roots
        # bound it above 8 and cut it. Extend must not build it, whichever
        # root reaches it first.
        db = generate_synthetic(30, 4, 13, 14, 5, 5, seed=7)
        reordered = QSequenceDatabase(tuple(reversed(db.sequences)), db.utilities)
        cfg = MiningConfig(min_util=8)
        shrink_counter = UtilityCounter()
        extend_counter = UtilityCounter()
        reordered_counter = UtilityCounter()
        shrink_result = mine_shrink(db, cfg, shrink_counter)
        assert mine_extend(db, cfg, extend_counter).as_set() == shrink_result.as_set()
        mine_extend(reordered, cfg, reordered_counter)
        assert extend_counter.count <= shrink_counter.count
        assert reordered_counter.count == extend_counter.count


class TestSubtreeCutSafety:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_every_pattern_in_cut_subtree_exceeds_threshold(self, seed):
        db = random_database(seed, max_seqs=4, max_len=6)
        index = build_bit_index(db)
        min_util = random.Random(seed).choice([2, 5, 10, 20])
        shadow = CutRecordingShadow()
        mine_extend(db, MiningConfig(min_util=min_util), shadow=shadow)
        for accumulated, residual in shadow.cuts:
            for k in range(len(residual) + 1):
                for extra in combinations(range(len(residual)), k):
                    candidate = accumulated + tuple(residual[i] for i in extra)
                    assert _utility(candidate, db, index) > min_util
