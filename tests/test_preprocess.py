"""Early pruning and root-set construction."""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from luspm import (
    ExternalUtilityTable,
    MiningConfig,
    QItem,
    QSequence,
    QSequenceDatabase,
    UtilityCounter,
    build_bit_index,
    build_max_non_con_seq_set,
    compute_utility,
    eups_prune,
    generate_synthetic,
    get_utility_chain,
    is_subsequence,
    mine_baseline,
    mine_extend,
    mine_shrink,
)
from luspm import preprocess
from luspm.chains import ChainStore

from conftest import A, B, C, random_database


class TestEupsPrune:
    def test_reference_example(self, ones_db):
        # [DERIVED] on chain(<a,b,c>) with ones externals the column sums are
        # 2, 4, 3; at threshold 3 only the b column exceeds it, leaving <a,c>
        # with rows (1,1) and (1,2).
        chain = get_utility_chain((A, B, C), ones_db)
        pruned, new_chain = eups_prune((A, B, C), chain, 3)
        assert pruned == (A, C)
        assert new_chain.rows == ((1, 1), (1, 2))

    def test_no_pruning_at_high_threshold(self, ones_db):
        chain = get_utility_chain((A, B, C), ones_db)
        pruned, new_chain = eups_prune((A, B, C), chain, 1000)
        assert pruned == (A, B, C)
        assert new_chain == chain

    def test_can_empty_a_pattern(self, ones_db):
        chain = get_utility_chain((A, B, C), ones_db)
        pruned, new_chain = eups_prune((A, B, C), chain, 0)
        assert pruned == ()
        assert new_chain.length == 0

    def test_single_pass_judgment(self):
        # Both columns are judged against the original chain: removing one
        # column must not change the verdict on the other.
        from luspm import SUChain

        # Column sums are 6 and 4: only the first column exceeds 5, and the
        # second is still judged against the original chain.
        chain = SUChain(2, ((3, 2), (3, 2)))
        pruned, _ = eups_prune((A, B), chain, 5)
        assert pruned == (B,)


class TestMaxNonConSeqSet:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([0, 2, 5, 8, 15, 30, 10_000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_roots_are_an_antichain(self, seed, min_util):
        # The miners search each root's subtree; a root contained in another,
        # or listed twice, would only repeat that search.
        db = random_database(seed)
        roots = build_max_non_con_seq_set(
            ChainStore(db, build_bit_index(db)), min_util
        ).roots
        assert len(set(roots)) == len(roots)
        for i, a in enumerate(roots):
            for j, b in enumerate(roots):
                assert i == j or not is_subsequence(a, b), (a, b)

    def test_reference_roots_at_huge_threshold(self, ref_db):
        # [DERIVED] nothing is pruned, and only sid 6's pattern <c,a,d,a> is a
        # subsequence of another (sid 1's <a,b,c,a,b,d,a>), so the roots are
        # the patterns of sids 1-5.
        index = build_bit_index(ref_db)
        got = build_max_non_con_seq_set(ChainStore(ref_db, index), 10_000).roots
        expected = tuple(s.items for s in ref_db.sequences[:5])
        assert got == expected

    def test_duplicates_collapse(self, ref_db):
        index = build_bit_index(ref_db)
        counter = UtilityCounter()
        build_max_non_con_seq_set(ChainStore(ref_db, index, counter), 10_000)
        assert counter.count == len(ref_db)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_roots_cover_all_pruned_sequences(self, seed):
        db = random_database(seed)
        index = build_bit_index(db)
        min_util = 8
        roots = build_max_non_con_seq_set(ChainStore(db, index), min_util).roots
        # Every pruned sequence pattern embeds in some root.
        for seq in db.sequences:
            chain = get_utility_chain(seq.items, db, index)
            pruned, _ = eups_prune(seq.items, chain, min_util)
            if pruned:
                assert any(is_subsequence(pruned, r) for r in roots)

    @given(st.integers(min_value=0, max_value=10_000))
    @example(4924)
    @settings(max_examples=30, deadline=None)
    def test_pruned_columns_never_low_utility(self, seed):
        # In a sequence that no longer sequence contains, the pattern embeds
        # only as the identity on it and on equal sequences, so a column's
        # sum is part of its item's singleton utility: singletons of removed
        # positions must exceed the threshold. This is the bound EUPS relies
        # on. In a contained sequence the pattern can embed several times onto
        # one position ((2, 1) twice in (2, 2, 1) at seed 4924), and a column
        # sum can exceed the singleton's utility.
        db = random_database(seed)
        index = build_bit_index(db)
        min_util = 5
        for seq in db.sequences:
            if any(
                len(other) > len(seq) and is_subsequence(seq.items, other.items)
                for other in db.sequences
            ):
                continue
            chain = get_utility_chain(seq.items, db, index)
            for q in range(chain.length):
                if chain.column_sum(q) > min_util:
                    item_chain = get_utility_chain((seq.items[q],), db, index)
                    assert compute_utility(item_chain) > min_util


def _rows_roots(store, min_util):
    """The roots as built from rows: each sequence's chain pulled in full,
    its column sums read from the rows, and every longer kept root holding
    all of a candidate's items probed."""
    candidates, seen = [], set()
    for seq in store.db.sequences:
        pattern = seq.items
        rows = store.rows(pattern)
        sums = [sum(util[d] for _, _, util in rows) for d in range(len(pattern))]
        pruned = tuple(x for x, total in zip(pattern, sums) if total <= min_util)
        if pruned and pruned not in seen:
            seen.add(pruned)
            candidates.append(pruned)
    kept = []
    for p in sorted(candidates, key=len, reverse=True):
        if not any(
            len(q) > len(p) and set(p) <= set(q) and is_subsequence(p, q) for q in kept
        ):
            kept.append(p)
    return tuple(p for p in candidates if p in set(kept))


def _copies(*lengths):
    """One sequence per length, each that many copies of item 1 with
    quantities cycling 1..3."""
    return QSequenceDatabase(
        tuple(
            QSequence(sid, tuple(QItem(1, 1 + k % 3) for k in range(n)))
            for sid, n in enumerate(lengths)
        ),
        ExternalUtilityTable({1: 1}),
    )


class TestRowFreeRoots:
    THRESHOLDS = (0, 1, 2, 4, 8, 15, 30)

    def test_roots_equal_the_rows_construction(self):
        # Alphabets of 1-4 items make holders with several embeddings; every
        # third database has Fraction utilities. The roots, their order and
        # the chains counted equal those of the construction from rows.
        several = fractions = 0
        for seed in range(150):
            rng = random.Random(seed)
            db = generate_synthetic(
                rng.randint(1, 8), rng.randint(1, 4), 1, rng.randint(1, 9), 4, 4, seed
            )
            if seed % 3 == 0:
                table = {
                    i: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                    for i in db.utilities.values
                }
                db = QSequenceDatabase(db.sequences, ExternalUtilityTable(table))
                fractions += 1
            index = build_bit_index(db)
            for min_util in self.THRESHOLDS:
                store = ChainStore(db, index, UtilityCounter())
                roots = build_max_non_con_seq_set(store, min_util).roots
                oracle = ChainStore(db, index, UtilityCounter())
                assert roots == _rows_roots(oracle, min_util), (seed, min_util)
                assert store.counter.count == oracle.counter.count
            several += oracle.rows_pulled > len(db)
        assert several and fractions

    def test_many_embeddings_pull_no_rows(self):
        # a^10 embeds C(20, 10) = 184,756 times in a^20; its column sums are
        # counted, not listed.
        db = _copies(10, 20)
        store = ChainStore(db, build_bit_index(db), UtilityCounter())
        roots = build_max_non_con_seq_set(store, 10**9).roots
        assert roots == (db.sequences[1].items,)
        assert store.rows_pulled == 0 and store.counter.count == 2

    def test_many_copies_mine_in_bounded_time(self):
        # Both miners mine a^10 + a^26 quickly; extend also a^10 + a^L for
        # longer L, with the baseline's results.
        cfg = MiningConfig(min_util=10**9)
        db = _copies(10, 26)
        expected = mine_baseline(db, cfg).as_set()
        for miner in (mine_shrink, mine_extend):
            started = time.perf_counter()
            assert miner(db, cfg).as_set() == expected
            assert time.perf_counter() - started < 0.1, miner.__name__
        for n in (30, 40, 50, 60):
            db = _copies(10, n)
            assert mine_extend(db, cfg).as_set() == mine_baseline(db, cfg).as_set()

    def test_antichain_probes_only_roots_with_enough_copies(self, monkeypatch):
        # A candidate is tested for containment only against longer kept
        # roots holding at least as many copies of each of its items.
        probes = []

        def recording(p, q):
            probes.append((p, q))
            return is_subsequence(p, q)

        monkeypatch.setattr(preprocess, "is_subsequence", recording)
        db = generate_synthetic(200, 8, 18, 22, 5, 5, seed=22)
        store = ChainStore(db, build_bit_index(db))
        roots = build_max_non_con_seq_set(store, 8).roots
        assert len(roots) > 100 and probes
        for p, q in probes:
            assert len(q) > len(p) and not Counter(p) - Counter(q)
