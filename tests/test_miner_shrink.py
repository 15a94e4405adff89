"""Shrinkage miner: oracle equivalence and pruning safety."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from luspm import (
    ChainStore,
    ExternalUtilityTable,
    MiningConfig,
    MiningShadow,
    QItem,
    QSequence,
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
from luspm.miner_shrink import _ShrinkMiner

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


def _repeated_db(sequences, externals):
    """One sequence per list of (item, quantity) pairs; items are 1, 2, ..."""
    return QSequenceDatabase(
        tuple(
            QSequence(sid, tuple(QItem(i, q) for i, q in elements))
            for sid, elements in enumerate(sequences)
        ),
        ExternalUtilityTable(dict(enumerate(externals, start=1))),
    )


# Databases over one or two items, so runs of one item are long: the shape in
# which many position subsets of a root spell the same pattern.
_repeated = st.tuples(
    st.integers(min_value=1, max_value=2).flatmap(
        lambda alphabet: st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=alphabet),
                    st.integers(min_value=1, max_value=4),
                ),
                min_size=1,
                max_size=9,
            ),
            min_size=1,
            max_size=2,
        )
    ),
    st.tuples(
        st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)
    ),
)


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

    @given(_repeated, st.integers(min_value=0, max_value=60))
    @settings(max_examples=60, deadline=None)
    def test_repeated_item_databases(self, spec, min_util):
        db = _repeated_db(*spec)
        cfg = MiningConfig(min_util=min_util)
        expected = mine_baseline(db, cfg).as_set()
        assert mine_shrink(db, cfg).as_set() == expected
        assert mine_extend(db, cfg).as_set() == expected


class TestRepetition:
    def test_each_node_is_expanded_once(self, monkeypatch):
        # n copies of one item have n distinct patterns; the search reaches
        # them along all 2^n position subsets, but must expand each
        # (pattern, start position) node once: at most n(n+1)/2 evaluations.
        n = 12
        db = _repeated_db([[(1, 1 + k % 3) for k in range(n)]], [1])
        cfg = MiningConfig(min_util=10**9)
        calls = []
        evaluate = ChainStore.evaluate

        def counting_evaluate(store, pattern):
            calls.append(pattern)
            return evaluate(store, pattern)

        monkeypatch.setattr(ChainStore, "evaluate", counting_evaluate)
        result = mine_shrink(db, cfg)
        monkeypatch.undo()
        assert len(calls) <= n * (n + 1) // 2
        assert result.as_set() == mine_baseline(db, cfg).as_set()
        assert len(result.as_set()) == n

    def test_no_node_is_expanded_twice_across_regimes(self, monkeypatch):
        # Roots of a small alphabet share sub-patterns, and at this threshold
        # some roots exceed it, so both regimes run and reach the same
        # (pattern, position) nodes from different roots. A call expands its
        # node if it does any work: calls a regime, evaluates or prunes.
        db = generate_synthetic(12, 4, 13, 14, 5, 5, seed=7)
        cfg = MiningConfig(min_util=20)
        entered = Counter()
        expanded = Counter()
        regimes = set()
        frames = []

        def did_work():
            if frames:
                frames[-1][1] = True

        def node(regime, method):
            def wrapper(miner, s, *args):
                did_work()
                key = (s, args[-1])
                regimes.add(regime)
                entered[key] += 1
                frames.append([key, False])
                try:
                    return method(miner, s, *args)
                finally:
                    key, worked = frames.pop()
                    expanded[key] += worked

            return wrapper

        def working(method):
            def wrapper(*args):
                did_work()
                return method(*args)

            return wrapper

        for name, regime in (("_shrinkage", "exact"), ("_shrinkage_depth", "depth")):
            monkeypatch.setattr(
                _ShrinkMiner, name, node(regime, getattr(_ShrinkMiner, name))
            )
        monkeypatch.setattr(_ShrinkMiner, "_prune_item", working(_ShrinkMiner._prune_item))
        monkeypatch.setattr(ChainStore, "evaluate", working(ChainStore.evaluate))
        counter = UtilityCounter()
        result = mine_shrink(db, cfg, counter)
        monkeypatch.undo()

        assert regimes == {"exact", "depth"}
        assert max(entered.values()) > 1  # nodes are reached more than once
        assert max(expanded.values()) == 1, [k for k, v in expanded.items() if v > 1]
        assert result.as_set() == mine_baseline(db, cfg).as_set()
        # 558 before the memo covered the lower-bound-screened regime.
        assert counter.count <= 558


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
