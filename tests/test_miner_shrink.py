"""Shrinkage miner: oracle equivalence and pruning safety."""

from __future__ import annotations

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from luspm import (
    MiningConfig,
    MiningShadow,
    UtilityCounter,
    build_bit_index,
    compute_utility,
    get_utility_chain,
    mine_baseline,
    mine_shrink,
)

from conftest import random_database


class RecordingShadow(MiningShadow):
    def __init__(self):
        self.skips = []
        self.prunes = []

    def sluspb_skip(self, pattern):
        self.skips.append(pattern)

    def sbips_prune(self, sequence, removed_index, position):
        self.prunes.append((sequence, removed_index, position))


def _utility(pattern, db, index):
    return compute_utility(get_utility_chain(pattern, db, index))


class TestEquivalence:
    def test_reference_database(self, ref_db):
        for min_util in (5, 10, 20, 40, 104):
            cfg = MiningConfig(min_util=min_util)
            assert mine_shrink(ref_db, cfg).as_set() == mine_baseline(
                ref_db, cfg
            ).as_set()

    def test_reference_with_max_len(self, ref_db):
        for max_len in (1, 2, 3):
            cfg = MiningConfig(min_util=20, max_len=max_len)
            assert mine_shrink(ref_db, cfg).as_set() == mine_baseline(
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
        assert mine_shrink(db, cfg).as_set() == mine_baseline(db, cfg).as_set()


class TestCounter:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_never_more_chains_than_baseline_candidates(self, seed):
        # With no length cap, pruning can only reduce the number of distinct
        # chain materializations relative to the exhaustive candidate count.
        db = random_database(seed)
        cfg = MiningConfig(min_util=10)
        base_counter = UtilityCounter()
        shrink_counter = UtilityCounter()
        mine_baseline(db, cfg, base_counter)
        mine_shrink(db, cfg, shrink_counter)
        assert shrink_counter.count <= base_counter.count


class TestPruningSafety:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_skipped_and_pruned_patterns_exceed_threshold(self, seed):
        db = random_database(seed, max_seqs=4, max_len=6)
        index = build_bit_index(db)
        min_util = random.Random(seed).choice([2, 5, 10, 20])
        shadow = RecordingShadow()
        mine_shrink(db, MiningConfig(min_util=min_util), shadow=shadow)
        for pattern in shadow.skips:
            assert _utility(pattern, db, index) > min_util
        for sequence, removed_index, position in shadow.prunes:
            prefix = sequence[:removed_index]
            tail = list(range(removed_index, len(sequence)))
            tail.remove(position)
            # Every pattern keeping the frozen prefix and the marked position
            # must exceed the threshold, whatever else survives around it.
            for k in range(len(tail) + 1):
                for extra in combinations(tail, k):
                    cols = sorted([position, *extra])
                    candidate = prefix + tuple(sequence[c] for c in cols)
                    assert _utility(candidate, db, index) > min_util
