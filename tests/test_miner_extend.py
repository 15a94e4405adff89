"""Extension miner: oracle equivalence and subtree-cut safety."""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luspm import (
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
from luspm import chains, miner_extend
from luspm.chains import ChainStore
from luspm.occurrence import is_subsequence
from luspm.preprocess import build_max_non_con_seq_set

from conftest import random_database


class CutRecordingShadow(MiningShadow):
    def __init__(self):
        self.cuts = []

    def ebisps_cut(self, accumulated, residual):
        self.cuts.append((accumulated, residual))


class SkipRecordingShadow(MiningShadow):
    def __init__(self):
        self.skips = []

    def sluspb_skip(self, pattern):
        self.skips.append(pattern)


def _utility(pattern, db, index):
    return compute_utility(get_utility_chain(pattern, db, index))


def _copies(n, item=1):
    """One sequence of n copies of one item, quantities cycling 1..3."""
    elements = tuple(QItem(item, 1 + k % 3) for k in range(n))
    return QSequenceDatabase((QSequence(0, elements),), ExternalUtilityTable({item: 1}))


def _reference_extension(db, min_util, max_len=None):
    """Extension search over every position subset of every root, with rows
    and bounds at each node and no memo, its cursor stopped at the length
    cap: the admitted candidates in order and the distinct cuts (prefix,
    residual)."""
    store = ChainStore(db, build_bit_index(db))
    candidates = {}
    cuts = set()

    def walk(s, rows, p):
        if p >= len(s) or (max_len is not None and p >= max_len):
            return
        keep = [*range(p), *range(p + 1, len(s))]
        walk(s[:p] + s[p + 1 :], chains.restrict_rows(rows, keep), p)
        if chains.column_bound(rows, range(p + 1)) > min_util:
            cuts.add((s[: p + 1], s[p + 1 :]))
            return
        walk(s, rows, p + 1)
        candidates[s[: p + 1]] = None

    for root in build_max_non_con_seq_set(store, min_util).roots:
        walk(root, store.rows(root), 0)
    return list(candidates), cuts


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

    def test_candidates_in_a_cut_subtree_are_not_evaluated(self, monkeypatch):
        # Each candidate extend admits on this database is some root's cut
        # prefix plus a subsequence of that cut's residual. Skipping only the
        # cut prefixes themselves evaluates 5 candidates and builds 64 chains.
        db = generate_synthetic(30, 4, 13, 14, 5, 5, seed=7)
        cfg = MiningConfig(min_util=8)
        evaluated = []
        evaluate = ChainStore.evaluate

        def counting_evaluate(store, pattern):
            evaluated.append(pattern)
            return evaluate(store, pattern)

        counter = UtilityCounter()
        shadow = SkipRecordingShadow()
        with monkeypatch.context() as m:
            m.setattr(ChainStore, "evaluate", counting_evaluate)
            result = mine_extend(db, cfg, counter, shadow)
        assert result.as_set() == mine_baseline(db, cfg).as_set()
        assert len(evaluated) < 5
        assert counter.count < 64
        store = ChainStore(db, build_bit_index(db))
        assert shadow.skips
        assert all(store.evaluate(q)[0] > cfg.min_util for q in shadow.skips)


class TestAdmission:
    def _mine(self, monkeypatch, db, cfg, shadow=None):
        """Mine, counting kernel calls, column-view scans of the roots'
        chains and admission expansions, and keeping the largest cursor an
        expansion or a rows-regime node was visited at."""
        count = Counter()
        first_visit = miner_extend.first_visit

        def counting_first_visit(expanded, s, p):
            first = first_visit(expanded, s, p)
            count["expansions"] += first
            count["cursor"] = max(count["cursor"], p)
            return first

        def counted(name):
            fn = getattr(chains, name)

            def wrapper(*args):
                count[name] += 1
                return fn(*args)

            return wrapper

        def scan(name):
            fn = getattr(chains.LazyChain, name)

            def wrapper(chain, *args):
                count[name] += 1
                return fn(chain, *args)

            return wrapper

        def node(fn, at):
            # ``at`` is the index of the cursor among the node's arguments.
            def wrapper(miner, *args):
                count["cursor"] = max(count["cursor"], args[at])
                return fn(miner, *args)

            return wrapper

        with monkeypatch.context() as m:
            for name in ("restrict_rows", "column_bound"):
                m.setattr(miner_extend, name, counted(name))
            for name in ("exceeds_on", "lone_row"):
                m.setattr(chains.LazyChain, name, scan(name))
            for name, at in (("_extension", 3), ("_extension_row", 2)):
                fn = getattr(miner_extend._ExtendMiner, name)
                m.setattr(miner_extend._ExtendMiner, name, node(fn, at))
            m.setattr(miner_extend, "first_visit", counting_first_visit)
            result = mine_extend(db, cfg, shadow=shadow)
        return result, count

    def test_repeated_item_is_admitted_without_rows(self, monkeypatch):
        # Every bound is within the threshold, so the whole search is the
        # row-free walk: n(n+1)/2 (pattern, cursor) nodes, not 2^n subsets
        # with a restriction and a bound at each.
        n = 12
        db = _copies(n)
        cfg = MiningConfig(min_util=10**9)
        result, count = self._mine(monkeypatch, db, cfg)
        assert count["restrict_rows"] == 0
        assert count["column_bound"] == 0
        assert 0 < count["expansions"] <= n * (n + 1) // 2
        assert result.as_set() == mine_baseline(db, cfg).as_set()
        assert len(result) == n

    def test_many_copies_are_evaluated_without_rows(self):
        # 60 copies of one item: a^k has C(60, k) embeddings, about 10^17 at
        # k = 30. The root's one row is all extend reads; each candidate is
        # summed by the embedding-count DP, which stops once a^k exceeds the
        # threshold.
        db = _copies(60)
        cfg = MiningConfig(min_util=10**9)
        expected = mine_baseline(db, cfg).as_set()
        assert 0 < len(expected) < 60
        miner = miner_extend._ExtendMiner(db, cfg, None, None)
        assert miner.run().as_set() == expected
        assert miner.store.rows_pulled == 1

    def test_repeated_item_below_a_cutting_threshold(self, monkeypatch):
        # Long prefixes of the root exceed 12 and are cut by the rows regime;
        # dropping positions brings subtrees within 12, which are admitted.
        # One sequence gives a one-row root, walked by prefix sums without a
        # prefix-bound scan; two equal sequences give a two-row root, whose
        # totals and prefix bounds are read by scanning its chain's column
        # views, never by the row kernels.
        n = 12
        one = _copies(n)
        seq = one.sequences[0]
        two = QSequenceDatabase((seq, QSequence(1, seq.elements)), one.utilities)
        cfg = MiningConfig(min_util=12)
        for db in (one, two):
            shadow = CutRecordingShadow()
            result, count = self._mine(monkeypatch, db, cfg, shadow)
            assert count["restrict_rows"] == count["column_bound"] == 0
            if db is one:
                assert count["exceeds_on"] == 0 and count["lone_row"] == 1
            else:
                assert count["exceeds_on"] > 0 and count["lone_row"] > 1
            assert count["expansions"] > 0
            assert shadow.cuts
            assert result.as_set() == mine_baseline(db, cfg).as_set()

    def test_length_cap_stops_the_row_free_walk(self, monkeypatch):
        # Below cursor p every admitted pattern is longer than p, so neither
        # the row-free walk nor the rows regime reaches a node at
        # p >= max_len: both do strictly less than the uncapped run.
        db = generate_synthetic(30, 4, 13, 14, 5, 5, seed=7)
        _, uncapped = self._mine(monkeypatch, db, MiningConfig(min_util=8))
        assert uncapped["expansions"] > 0
        for max_len in (1, 2, 3):
            cfg = MiningConfig(min_util=8, max_len=max_len)
            result, count = self._mine(monkeypatch, db, cfg)
            assert count["expansions"] < uncapped["expansions"]
            assert count["exceeds_on"] < uncapped["exceeds_on"]
            assert count["lone_row"] < uncapped["lone_row"]
            assert count["cursor"] < max_len
            assert result.as_set() == mine_baseline(db, cfg).as_set()

    def test_one_row_walk_takes_over_after_a_collapse(self, monkeypatch):
        # The first 2 of (1, 2, 2, 3) is above the threshold, so the root is
        # (1, 2, 3), which embeds twice. Dropping its 2 at cursor 1 collapses
        # both rows onto one, (3, 3), and the one-row walk that takes over
        # must start from the prefix sum 3: it cuts (1, 3) at 6. No other
        # node of this search has one row above the threshold.
        elements = tuple(QItem(i, q) for i, q in ((1, 3), (2, 5), (2, 1), (3, 3)))
        db = QSequenceDatabase(
            (QSequence(0, elements),), ExternalUtilityTable.uniform((1, 2, 3))
        )
        walks = []
        extension_row = miner_extend._ExtendMiner._extension_row

        def recording_extension_row(miner, s, util, p, total, head):
            walks.append((s, util, p, total, head))
            return extension_row(miner, s, util, p, total, head)

        with monkeypatch.context() as m:
            m.setattr(miner_extend._ExtendMiner, "_extension_row", recording_extension_row)
            self.test_cuts_and_evaluations_equal_a_plain_walk(monkeypatch, db, 4, None)
        assert walks == [((1, 3), (3, 3), 1, 6, 3)]

    @pytest.mark.parametrize(
        "db, min_util, max_len",
        [(random_database(seed), [3, 6, 12, 25][seed % 4], [None, 2][seed % 5 == 0])
         for seed in range(40)]
        + [(_copies(n), min_util, None) for n in (6, 9) for min_util in (5, 12, 10**9)]
        + [(_copies(8, 2), 9, 3)],
    )
    def test_cuts_and_evaluations_equal_a_plain_walk(
        self, monkeypatch, db, min_util, max_len
    ):
        # The memoized row-free regime must lose no cut and admit nothing new:
        # the distinct cuts equal the plain walk's, and exactly its candidates
        # that no cut covers are evaluated, in its admission order.
        cfg = MiningConfig(min_util=min_util, max_len=max_len)
        candidates, cuts = _reference_extension(db, min_util, max_len)
        evaluated = []
        evaluate = ChainStore.evaluate

        def recording_evaluate(store, pattern):
            evaluated.append(pattern)
            return evaluate(store, pattern)

        shadow = CutRecordingShadow()
        with monkeypatch.context() as m:
            m.setattr(ChainStore, "evaluate", recording_evaluate)
            result = mine_extend(db, cfg, shadow=shadow)
        assert set(shadow.cuts) == cuts
        assert evaluated == [
            q
            for q in candidates
            if not any(
                q[: len(prefix)] == prefix and is_subsequence(q[len(prefix) :], residual)
                for prefix, residual in cuts
            )
        ]
        assert result.as_set() == mine_baseline(db, cfg).as_set()


class TestLaziness:
    @pytest.mark.parametrize("seed, min_util", [(11, 5), (22, 2)])
    def test_roots_are_pulled_only_as_far_as_their_questions_need(self, seed, min_util):
        # At thresholds of 2-5 one embedding's utility mostly exceeds the
        # threshold, so a node's total, its row count and its prefix bounds
        # are decided by the first rows of its root's chain: the search pulls
        # under a quarter of its roots' rows (about 1/7 and 1/12 here).
        db = generate_synthetic(200, 8, 18, 22, 5, 5, seed=seed)
        cfg = MiningConfig(min_util=min_util)
        miner = miner_extend._ExtendMiner(db, cfg, None, None)
        result = miner.run()
        store = ChainStore(db, build_bit_index(db))
        root_rows = sum(len(store.rows(root)) for root in miner.roots)
        assert 0 < miner.store.rows_pulled <= root_rows / 4
        assert result.as_set() == mine_shrink(db, cfg).as_set()


def _distinct_items(n):
    """One sequence of n distinct items, each of utility 1."""
    elements = tuple(QItem(i, 1) for i in range(1, n + 1))
    return QSequenceDatabase(
        (QSequence(0, elements),), ExternalUtilityTable.uniform(range(1, n + 1))
    )


class _CutKeepingMiner(miner_extend._ExtendMiner):
    """An extension miner that keeps its cut store as it stands at the end of
    the search, before ``_records`` releases it."""

    def _records(self):
        self.final_cuts = self._cuts
        return super()._records()


def _stored_cuts(miner):
    """The cut store of a finished ``_CutKeepingMiner`` run, as prefix ->
    [(root index, residual start), ...]. Each entry must be one int packing
    one pair, or a flat list of two or more int pairs."""
    stored = {}
    shift = miner_extend._SHIFT
    for prefix, entries in miner.final_cuts.items():
        if type(entries) is int:
            stored[prefix] = [(entries >> shift, entries & ((1 << shift) - 1))]
            continue
        assert all(type(v) is int for v in entries), entries
        assert len(entries) % 2 == 0 and len(entries) >= 4
        stored[prefix] = list(zip(entries[::2], entries[1::2]))
    return stored


class TestCutStore:
    def test_one_entry_per_prefix_and_root_and_no_residual_tuples(self):
        # n distinct items at min_util=1: each two-item prefix (i, j) is cut
        # once, with the residual of the n - j items after j, C(n, 3) items
        # in all. The store keeps a root index and a start per cut instead.
        n = 40
        db = _distinct_items(n)
        shadow = CutRecordingShadow()
        miner = _CutKeepingMiner(db, MiningConfig(min_util=1), None, shadow)
        assert miner.run().as_set() == {((i,), 1, 1) for i in range(1, n + 1)}
        stored = _stored_cuts(miner)
        assert sum(map(len, stored.values())) == len(stored) == comb(n, 2)
        assert sum(len(r) for _, r in shadow.cuts) == comb(n, 3)
        # Each stored residual is the root's suffix at its start, and holds
        # every residual the shadow saw for that prefix.
        for prefix, pairs in stored.items():
            for i, start in pairs:
                residual = miner.roots[i][start:]
                assert all(
                    is_subsequence(r, residual) for p, r in shadow.cuts if p == prefix
                )

    def test_many_roots_keep_one_smallest_start_each(self):
        db = generate_synthetic(30, 4, 13, 14, 5, 5, seed=7)
        cfg = MiningConfig(min_util=8)
        shadow = CutRecordingShadow()
        miner = _CutKeepingMiner(db, cfg, None, shadow)
        assert miner.run().as_set() == mine_baseline(db, cfg).as_set()
        stored = _stored_cuts(miner)
        assert len(miner.roots) > 1
        assert any(len(pairs) > 1 for pairs in stored.values())
        for prefix, pairs in stored.items():
            roots = [i for i, _ in pairs]
            assert roots == sorted(set(roots))
        # The cuts the shadow saw are exactly the stored pairs' suffixes and
        # their subsequences: the same prefixes, the longest residual kept.
        longest = {}
        for prefix, residual in shadow.cuts:
            if len(residual) >= len(longest.get(prefix, ())):
                longest[prefix] = residual
        assert set(longest) == set(stored)
        for prefix, pairs in stored.items():
            kept = max(len(miner.roots[i]) - start for i, start in pairs)
            assert kept == len(longest[prefix])

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_length_cap_stores_no_longer_prefix(self, max_len):
        # The capped store is the uncapped one without its prefixes longer
        # than the cap, and the cuts the shadow sees are the stored ones.
        cases = [(generate_synthetic(30, 4, 13, 14, 5, 5, seed=7), 8)]
        cases += [(random_database(seed), 6) for seed in range(20)]
        dropped = kept = 0
        for db, min_util in cases:
            uncapped = _CutKeepingMiner(db, MiningConfig(min_util=min_util), None, None)
            uncapped.run()
            cfg = MiningConfig(min_util=min_util, max_len=max_len)
            shadow = CutRecordingShadow()
            miner = _CutKeepingMiner(db, cfg, None, shadow)
            assert miner.run().as_set() == mine_baseline(db, cfg).as_set()
            stored = _stored_cuts(miner)
            assert all(len(prefix) <= max_len for prefix in stored)
            assert stored == {
                prefix: pairs
                for prefix, pairs in _stored_cuts(uncapped).items()
                if len(prefix) <= max_len
            }
            assert {p for p, _ in shadow.cuts} == set(stored)
            dropped += any(len(p) > max_len for p in _stored_cuts(uncapped))
            kept += bool(stored)
        assert dropped and kept


class TestRelease:
    def test_search_state_is_released_before_evaluation(self, monkeypatch):
        # Every evaluation runs after the cut store, the node memo and the
        # admitted prefixes are released.
        db = generate_synthetic(100, 30, 8, 12, 5, 5, seed=1)
        cfg = MiningConfig(sigma=Fraction(1, 1000))
        miner = _CutKeepingMiner(db, cfg, None, None)
        seen = []
        evaluate = ChainStore.evaluate

        def inspecting_evaluate(store, pattern):
            seen.append((miner._cuts, miner._expanded, miner._admitted))
            return evaluate(store, pattern)

        monkeypatch.setattr(ChainStore, "evaluate", inspecting_evaluate)
        assert miner.run().as_set() == mine_baseline(db, cfg).as_set()
        assert seen and miner.final_cuts
        assert all(state == (None, None, None) for state in seen)


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
