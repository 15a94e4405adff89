"""Inherited-chain arithmetic: restriction, deduplication and bounds."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from luspm import (
    MiningConfig,
    UtilityCounter,
    build_bit_index,
    compute_utility,
    mine_baseline,
)
from luspm.chains import ChainStore, column_bound, restrict_rows, rows_total

from conftest import random_database


def _store(db):
    return ChainStore(db, build_bit_index(db), UtilityCounter())


class TestRestrictRows:
    def test_collapsing_rows_are_deduplicated(self):
        rows = (
            (1, (0, 2, 5), (1, 1, 1)),
            (1, (0, 3, 5), (1, 1, 1)),
        )
        # Dropping the middle column makes both rows the embedding (0, 5).
        restricted = restrict_rows(rows, (0, 2))
        assert restricted == ((1, (0, 5), (1, 1)),)

    def test_distinct_rows_survive(self):
        rows = (
            (1, (0, 2), (1, 2)),
            (1, (0, 3), (1, 4)),
            (2, (0, 2), (5, 6)),
        )
        assert restrict_rows(rows, (0, 1)) == rows

    def test_column_bound_matches_restrict(self):
        rows = (
            (1, (0, 2, 5), (1, 2, 3)),
            (1, (0, 3, 5), (1, 4, 3)),
        )
        assert column_bound(rows, (0, 2)) == rows_total(restrict_rows(rows, (0, 2)))


class TestLowerBoundProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_restriction_is_a_lower_bound(self, seed):
        # The deduplicated restricted sum never exceeds the true utility of
        # the restricted pattern, for any pattern drawn from the database.
        db = random_database(seed)
        store = _store(db)
        rng = random.Random(seed)
        seq = rng.choice(db.sequences)
        k = rng.randint(1, len(seq))
        cols_f = sorted(rng.sample(range(len(seq)), k))
        pattern = tuple(seq.items[j] for j in cols_f)
        rows = store.tagged(pattern)
        m = rng.randint(1, len(pattern))
        keep = sorted(rng.sample(range(len(pattern)), m))
        sub = tuple(pattern[c] for c in keep)
        true_u, _ = store.evaluate(sub)
        assert column_bound(rows, keep) <= true_u

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_nested_restrictions_strictly_increase(self, seed):
        # For proper non-empty column nesting S < Q < F the bounds chain
        # strictly: every utility entry is positive.
        db = random_database(seed)
        store = _store(db)
        rng = random.Random(seed)
        seq = rng.choice(db.sequences)
        if len(seq) < 3:
            return
        pattern = seq.items
        rows = store.tagged(pattern)
        q_cols = sorted(rng.sample(range(len(pattern)), len(pattern) - 1))
        s_cols = sorted(rng.sample(q_cols, len(q_cols) - 1))
        if not s_cols:
            return
        assert column_bound(rows, s_cols) < column_bound(rows, q_cols)
        assert column_bound(rows, q_cols) < rows_total(rows)


class TestChainStore:
    def test_counter_counts_distinct_patterns_once(self, ref_db):
        store = _store(ref_db)
        store.tagged((1, 2))
        store.tagged((1, 2))
        store.tagged((1,))
        assert store.counter.count == 2

    # The baseline aggregates every pattern's utility and support from
    # position subsets, independently of any chain.

    def test_evaluate_matches_direct_chain(self, ref_db):
        store = _store(ref_db)
        for r in mine_baseline(ref_db, MiningConfig(min_util=10**9)).records:
            assert store.evaluate(r.pattern) == (r.utility, r.support)

    def test_chain_view_matches_direct(self, ref_db):
        store = _store(ref_db)
        for r in mine_baseline(ref_db, MiningConfig(min_util=10**9)).records:
            chain = store.chain(r.pattern)
            assert chain.support == r.support
            assert compute_utility(chain) == r.utility
