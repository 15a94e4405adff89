"""Exhaustive baseline miner, the result model and the root-search
scaffold."""

from __future__ import annotations

import ast
import inspect
import random
import time
from fractions import Fraction
from pathlib import Path
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luspm import (
    CandidateCapExceeded,
    ExternalUtilityTable,
    LuspRecord,
    LuspResult,
    MiningConfig,
    QItem,
    QSequence,
    QSequenceDatabase,
    UtilityCounter,
    compute_utility,
    enumerate_all_subsequences,
    estimate_utility_computations,
    generate_synthetic,
    get_utility_chain,
    mine_baseline,
    run_once,
    support,
)
from luspm.miner_base import _aggregate_candidates
from luspm.miner_extend import _ExtendMiner
from luspm.miner_shrink import _ShrinkMiner

from conftest import random_database


def _subset_sweep(db, max_len=None):
    """Pattern -> [utility, embedding count], summed over every position
    subset of every sequence, each subset being one embedding."""
    totals = {}
    for seq in db.sequences:
        items, utils = seq.items, db.sequence_utilities(seq)
        longest = len(items) if max_len is None else min(len(items), max_len)
        for k in range(1, longest + 1):
            for positions in combinations(range(len(items)), k):
                entry = totals.setdefault(tuple(items[i] for i in positions), [0, 0])
                entry[0] += sum(utils[i] for i in positions)
                entry[1] += 1
    return totals


def _low_utility(totals, min_util):
    return {(p, u, n) for p, (u, n) in totals.items() if 0 < u <= min_util}


def _fractional(db, seed):
    """``db`` with a random ``Fraction`` external utility per item."""
    rng = random.Random(seed)
    table = {i: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for i in db.utilities.values}
    return QSequenceDatabase(db.sequences, ExternalUtilityTable(table))


class TestLuspResult:
    def test_sorted_and_deduplicated(self):
        records = [LuspRecord((2,), 1, 1), LuspRecord((1, 2), 2, 1)]
        result = LuspResult.from_records(records, 5, None)
        assert [r.pattern for r in result.records] == [(1, 2), (2,)]

    def test_duplicate_patterns_rejected(self):
        records = [LuspRecord((1,), 1, 1), LuspRecord((1,), 2, 2)]
        with pytest.raises(ValueError):
            LuspResult.from_records(records, 5, None)

    def test_serialize_format(self):
        result = LuspResult.from_records([LuspRecord((1, 2), 3, 2)], 5, None)
        assert result.serialize() == "1 2\t3\t2\n"

    def test_serialize_is_deterministic(self):
        records = [LuspRecord((3,), 1, 1), LuspRecord((1,), 2, 1)]
        a = LuspResult.from_records(records, 5, None)
        b = LuspResult.from_records(list(reversed(records)), 5, None)
        assert a.serialize() == b.serialize()


class TestEnumerateAllSubsequences:
    def test_counts_distinct_patterns(self, ref_db):
        subs = enumerate_all_subsequences(ref_db, max_len=1)
        # [DERIVED] distinct single items across the reference sequences.
        assert subs == {(i,) for i in range(1, 8)}

    def test_cap_triggers(self, ref_db):
        with pytest.raises(CandidateCapExceeded):
            enumerate_all_subsequences(ref_db, cap=3)


class TestMineBaseline:
    def test_every_record_verified_directly(self, ref_db):
        result = mine_baseline(ref_db, MiningConfig(min_util=20))
        assert result.records  # the threshold admits patterns
        for r in result.records:
            chain = get_utility_chain(r.pattern, ref_db)
            assert compute_utility(chain) == r.utility
            assert chain.support == r.support
            assert 0 < r.utility <= 20

    def test_completeness_against_subsequence_sweep(self, ref_db):
        result = mine_baseline(ref_db, MiningConfig(min_util=20))
        mined = {r.pattern for r in result.records}
        for pattern in enumerate_all_subsequences(ref_db):
            u = compute_utility(get_utility_chain(pattern, ref_db))
            assert (pattern in mined) == (0 < u <= 20)

    def test_max_len_honored(self, ref_db):
        result = mine_baseline(ref_db, MiningConfig(min_util=20, max_len=2))
        full = mine_baseline(ref_db, MiningConfig(min_util=20))
        assert {r.pattern for r in result.records} == {
            r.pattern for r in full.records if len(r.pattern) <= 2
        }

    def test_counter_counts_distinct_candidates(self, ref_db):
        counter = UtilityCounter()
        mine_baseline(ref_db, MiningConfig(min_util=20), counter)
        assert counter.count == len(enumerate_all_subsequences(ref_db))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_support_matches_embedding_count(self, seed):
        db = random_database(seed)
        result = mine_baseline(db, MiningConfig(min_util=15))
        for r in result.records:
            assert support(r.pattern, db) == r.support

    def test_peak_is_a_first_item_class(self):
        # The benchmark's sparse database has 120,468 distinct patterns, and
        # one trie of them all peaked above 12 MiB; its largest first-item
        # class has 8,215.
        db = generate_synthetic(100, 30, 8, 12, 5, 5, 1)
        result, report = run_once(db, MiningConfig(sigma=Fraction(1, 1000)), "base")
        assert report.status == "ok" and len(result) == 253
        assert report.utility_computations == 120_468
        assert report.peak_bytes < 3 * 2**20


class TestAgainstSubsetSweep:
    """The baseline against a brute-force sweep of every position subset."""

    def test_random_databases(self):
        for seed in range(200):
            db = random_database(seed)
            min_util = random.Random(seed).choice([3, 8, 20, 60, 10**6])
            for max_len in (None, 1, 2, 3):
                totals = _subset_sweep(db, max_len)
                cfg = MiningConfig(min_util=min_util, max_len=max_len)
                counter = UtilityCounter()
                result = mine_baseline(db, cfg, counter)
                assert result.as_set() == _low_utility(totals, min_util), (seed, max_len)
                assert counter.count == len(totals)
                assert enumerate_all_subsequences(db, max_len) == set(totals)

    def test_fractional_utilities(self):
        for seed in range(20):
            db = _fractional(random_database(seed), seed)
            min_util = Fraction(31, 2)
            for max_len in (None, 2):
                totals = _subset_sweep(db, max_len)
                result = mine_baseline(db, MiningConfig(min_util=min_util, max_len=max_len))
                assert result.as_set() == _low_utility(totals, min_util), (seed, max_len)

    def test_sigma_threshold(self):
        # A fractional threshold over integer utilities.
        for seed in range(20):
            db = random_database(seed)
            cfg = MiningConfig(sigma=Fraction(1, 7))
            result = mine_baseline(db, cfg)
            assert result.as_set() == _low_utility(_subset_sweep(db), result.min_util)

    def test_first_item_classes_partition_the_patterns(self):
        # Each trie handed to the visitor holds the patterns of one first
        # item; the classes are disjoint, and together, with their totals,
        # they are every distinct pattern of every sequence.
        for seed in range(240):
            db = random_database(seed)
            if seed % 4 == 0:
                db = _fractional(db, seed)
            if seed % 5 == 0:
                # Copies of one item, with another between them.
                run = (1, 1, 1, 1, 2, 1, 1, 1, 1)
                reps = tuple(QItem(x, 1 + j % 3) for j, x in enumerate(run))
                db = QSequenceDatabase(
                    db.sequences + (QSequence(99, reps),),
                    ExternalUtilityTable({1: 2, 2: 1, **db.utilities.values}),
                )
            items = {x for seq in db.sequences for x in seq.items}
            for max_len in (None, 1, 2, 3):
                classes = []

                def visit(parent, item, ut, cnt):
                    built, totals = [()], {}
                    for g in range(1, len(parent)):
                        built.append(built[parent[g]] + (item[g],))
                        totals[built[g]] = [ut[g], cnt[g]]
                    classes.append(totals)

                total = _aggregate_candidates(db, max_len, None, visit)
                union = {}
                for totals in classes:
                    first = {pattern[0] for pattern in totals}
                    assert len(first) == 1, (seed, max_len)
                    assert union.keys().isdisjoint(totals), (seed, max_len)
                    union.update(totals)
                assert {pattern[0] for pattern in union} == items
                assert len(classes) == len(items), (seed, max_len)
                assert union == _subset_sweep(db, max_len), (seed, max_len)
                assert total == len(union)
                assert enumerate_all_subsequences(db, max_len) == set(union)

    def test_copies_of_one_item(self):
        # a^k embeds once per k-subset of the n positions, and each position
        # lies in C(n-1, k-1) of them.
        n = 14
        quantities = [1 + j % 3 for j in range(n)]
        seq = QSequence(0, tuple(QItem(5, q) for q in quantities))
        db = QSequenceDatabase((seq,), ExternalUtilityTable({5: 2}))
        result = mine_baseline(db, MiningConfig(min_util=10**9))
        expected = {
            ((5,) * k, sum(2 * q for q in quantities) * comb(n - 1, k - 1), comb(n, k))
            for k in range(1, n + 1)
        }
        assert result.as_set() == expected

    def test_sequence_order_does_not_matter(self):
        # Trie ids are handed out in the order patterns first appear, so they
        # depend on the order of the sequences; the result must not.
        for seed in range(30):
            db = random_database(seed)
            rng = random.Random(seed)
            cfg = MiningConfig(min_util=rng.choice([3, 8, 20, 60, 10**6]))
            counter = UtilityCounter()
            expected = mine_baseline(db, cfg, counter).as_set()
            shuffled = list(db.sequences)
            rng.shuffle(shuffled)
            for order in (db.sequences[::-1], tuple(shuffled)):
                reordered = QSequenceDatabase(order, db.utilities)
                other = UtilityCounter()
                assert mine_baseline(reordered, cfg, other).as_set() == expected, seed
                assert other.count == counter.count, seed


class TestCandidateCap:
    def test_cap_at_the_distinct_count(self, ref_db):
        # The sequences share subsequences, and each alone holds fewer than
        # count - 1, so only the union can exceed the cap.
        for max_len in (None, 2):
            count = len(enumerate_all_subsequences(ref_db, max_len, cap=None))
            for seq in ref_db.sequences:
                single = QSequenceDatabase((seq,), ref_db.utilities)
                assert len(enumerate_all_subsequences(single, max_len)) < count - 1
            cfg = MiningConfig(min_util=20, max_len=max_len)
            assert len(enumerate_all_subsequences(ref_db, max_len, cap=count)) == count
            mine_baseline(ref_db, cfg, cap=count)
            with pytest.raises(CandidateCapExceeded):
                enumerate_all_subsequences(ref_db, max_len, cap=count - 1)
            with pytest.raises(CandidateCapExceeded):
                mine_baseline(ref_db, cfg, cap=count - 1)

    @pytest.mark.parametrize("max_len", [1, 2, 4, None])
    def test_alternating_runs_under_length_cap(self, max_len):
        # Runs of two alternating items: an item recurs after patterns that
        # already extend it, and under a length cap some of those patterns
        # are too long to extend at all.
        items = [1, 1, 1, 2, 2, 1, 1, 1, 2, 2, 1, 1, 1, 2]
        seq = QSequence(0, tuple(QItem(x, 1 + j % 3) for j, x in enumerate(items)))
        db = QSequenceDatabase((seq,), ExternalUtilityTable({1: 2, 2: 3}))
        totals = _subset_sweep(db, max_len)
        count = len(totals)
        cfg = MiningConfig(min_util=10**9, max_len=max_len)
        result = mine_baseline(db, cfg, cap=count)
        assert result.as_set() == _low_utility(totals, 10**9)
        assert enumerate_all_subsequences(db, max_len, cap=count) == set(totals)
        with pytest.raises(CandidateCapExceeded):
            mine_baseline(db, cfg, cap=count - 1)
        with pytest.raises(CandidateCapExceeded):
            enumerate_all_subsequences(db, max_len, cap=count - 1)

    @pytest.mark.parametrize("items", [range(1, 41), [1, 2] * 20])
    def test_long_sequence_fails_fast(self, items):
        # 2^40 - 1 distinct subsequences of 40 distinct items, over 10^8 of
        # two alternating ones, where no position adds a new singleton: the
        # cap must stop the sweep of the one sequence, not wait for its end.
        seq = QSequence(0, tuple(QItem(i, 1) for i in items))
        db = QSequenceDatabase((seq,), ExternalUtilityTable.uniform(set(items)))
        started = time.perf_counter()
        with pytest.raises(CandidateCapExceeded):
            mine_baseline(db, MiningConfig(min_util=10), cap=1000)
        assert time.perf_counter() - started < 1


class TestEstimate:
    def test_upper_bounds_distinct_candidates(self, ref_db):
        estimate = estimate_utility_computations(ref_db)
        assert estimate >= len(enumerate_all_subsequences(ref_db))

    def test_exact_on_distinct_positions(self):
        from luspm import ExternalUtilityTable, QItem, QSequence, QSequenceDatabase

        seq = QSequence(0, tuple(QItem(i, 1) for i in (1, 2, 3)))
        db = QSequenceDatabase((seq,), ExternalUtilityTable.uniform((1, 2, 3)))
        # All items distinct: every position subset is a distinct pattern.
        assert estimate_utility_computations(db) == 7
        assert len(enumerate_all_subsequences(db)) == 7

    def test_respects_max_len(self, ref_db):
        assert estimate_utility_computations(ref_db, 1) == sum(
            len(s) for s in ref_db.sequences
        )


class TestRootSearch:
    # Each miner's recursive steps, with the cursor below which every pattern
    # holds nothing within a length cap: extend's patterns below ``(s, p)``
    # are longer than ``p``, shrink's keep ``s[:p]``.
    STEPS = [
        (_ExtendMiner, "_extension", 1),
        (_ExtendMiner, "_extension_row", 1),
        (_ExtendMiner, "_admit_all", 1),
        (_ShrinkMiner, "_shrinkage", 0),
        (_ShrinkMiner, "_shrinkage_depth", 0),
    ]

    def test_length_cap_bounds_every_cursor(self, monkeypatch):
        # Neither search walks a node below which every pattern is longer
        # than the cap: extend never reaches p >= max_len, shrink never
        # p > max_len, in any regime, and both still return the baseline's
        # results.
        cases = [(generate_synthetic(30, 4, 13, 14, 5, 5, seed=7), 8)]
        cases += [(random_database(seed), (3, 6, 12)[seed % 3]) for seed in range(20)]
        cursors = {name: [] for _, name, _ in self.STEPS}

        def recording(cls, name, longer):
            step = getattr(cls, name)
            signature = inspect.signature(step)

            def wrapper(miner, *args):
                p = signature.bind(miner, *args).arguments["p"]
                cursors[name].append(p + longer - miner.max_len)
                return step(miner, *args)

            return wrapper

        for cls, name, longer in self.STEPS:
            monkeypatch.setattr(cls, name, recording(cls, name, longer))
        for db, min_util in cases:
            for max_len in (1, 2, 3):
                cfg = MiningConfig(min_util=min_util, max_len=max_len)
                expected = mine_baseline(db, cfg).as_set()
                for cls in (_ExtendMiner, _ShrinkMiner):
                    assert cls(db, cfg, None, None).run().as_set() == expected
        # Every step ran, and never beyond the cap; extend's walks reach the
        # cap's last cursor and shrink's the cap itself.
        for name, excess in cursors.items():
            assert excess and max(excess) == 0, name

    def test_one_place_sets_the_recursion_limit(self):
        # The recursion limit is interpreter-wide; only the locked, relative
        # ``miner_base._add_to_recursion_limit`` may change it.
        package = Path(inspect.getfile(_ShrinkMiner)).parent
        calls = []

        def visit(node, scope, module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "setrecursionlimit":
                    calls.append((module, ".".join(scope)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope, module)

        modules = sorted(package.glob("*.py"))
        assert len(modules) > 10
        for path in modules:
            visit(ast.parse(path.read_text()), (), path.stem)
        assert calls == [("miner_base", "_add_to_recursion_limit")]
