"""Inherited-chain arithmetic: restriction, deduplication and bounds."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, groupby
from math import inf
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from luspm import (
    ExternalUtilityTable,
    MiningConfig,
    QSequence,
    QSequenceDatabase,
    UtilityCounter,
    build_bit_index,
    compute_utility,
    generate_synthetic,
    mine_baseline,
)
from luspm import chains
from luspm.chains import (
    ChainStore,
    LazyChain,
    column_bound,
    restrict_rows,
    rows_total,
)

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


class TestKernels:
    def test_restrict_and_bound_equal_reference(self):
        # Few sids and positions make restricted rows collapse; odd seeds
        # draw Fraction utilities; row sets of 0 and 1 rows occur. Keeps of
        # length 0 and 1 are tried on every row set, beside random and full
        # ones.
        collapsed = fractions = 0
        for seed in range(200):
            rng = random.Random(seed)
            width = rng.randint(1, 5)
            rows = []
            for _ in range(rng.randint(0, 12)):
                pos = tuple(sorted(rng.sample(range(width + 2), width)))
                if seed % 2:
                    util = tuple(Fraction(rng.randint(1, 9), 3) for _ in pos)
                else:
                    util = tuple(rng.randint(1, 9) for _ in pos)
                rows.append((rng.randint(0, 2), pos, util))
            rows = tuple(rows)
            keeps = [(), (rng.randrange(width),), tuple(range(width))]
            keeps.append(tuple(sorted(rng.sample(range(width), rng.randint(0, width)))))
            for keep in keeps:
                first: dict = {}
                for sid, pos, util in rows:
                    first.setdefault(
                        (sid, tuple(pos[c] for c in keep)),
                        tuple(util[c] for c in keep),
                    )
                expected = tuple((sid, p, u) for (sid, p), u in first.items())
                assert restrict_rows(rows, keep) == expected
                assert column_bound(rows, keep) == sum(sum(u) for u in first.values())
                collapsed += len(expected) < len(rows)
                fractions += any(isinstance(x, Fraction) for _, _, u in expected for x in u)
        assert collapsed > 0 and fractions > 0


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
        rows = store.rows(pattern)
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
        rows = store.rows(pattern)
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

    def test_evaluate_matches_direct_chain(self, ref_db, monkeypatch):
        store = _store(ref_db)
        records = mine_baseline(ref_db, MiningConfig(min_util=10**9)).records
        for r in records:
            assert store.evaluate(r.pattern) == (r.utility, r.support)
        # A second call reads the memoized answer: it neither builds a chain
        # nor scans the database again, for rows or for totals.
        built = store.counter.count
        with monkeypatch.context() as m:
            m.setattr(chains, "enumerate_embeddings", None)
            m.setattr(chains, "greedy_matches", None)
            for r in records:
                assert store.evaluate(r.pattern) == (r.utility, r.support)
        assert store.counter.count == built
        for r in records:
            rows = store.rows(r.pattern)
            assert (r.utility, r.support) == (rows_total(rows), len(rows))

    def test_chain_view_matches_direct(self, ref_db):
        store = _store(ref_db)
        for r in mine_baseline(ref_db, MiningConfig(min_util=10**9)).records:
            chain = store.chain(r.pattern)
            assert chain.support == r.support
            assert compute_utility(chain) == r.utility


class TestTotalsScan:
    def test_evaluate_sums_without_rows(self):
        # Alphabets of 1-3 items over sequences of up to 10 positions repeat
        # items, so most holders have several embeddings; odd seeds use
        # Fraction utilities, and every third store has no index. At
        # thresholds below, at and above each reference total, a store
        # answers None exactly when the total exceeds the threshold, and
        # otherwise the total and the embedding count, reading no rows. The
        # chain's rows, pulled afterwards, are still every embedding's.
        several = fractions = unindexed = exceeded = 0
        for seed in range(60):
            rng = random.Random(seed)
            db = generate_synthetic(rng.randint(1, 5), rng.randint(1, 3), 1, 10, 4, 4, seed)
            if seed % 2:
                thirds = {i: Fraction(v, 3) for i, v in db.utilities.values.items()}
                db = QSequenceDatabase(db.sequences, ExternalUtilityTable(thirds))
            index = None if seed % 3 == 0 else build_bit_index(db)
            patterns = {(1,) * rng.randint(1, 6) for _ in range(3)}
            for seq in db.sequences:
                k = rng.randint(1, len(seq))
                patterns.add(tuple(seq.items[j] for j in sorted(rng.sample(range(len(seq)), k))))
            for p in sorted(patterns):
                rows = _reference_rows(db, p)
                total = rows_total(rows)
                for t in (*_thresholds([total]), total + 1, inf):
                    store = ChainStore(db, index, UtilityCounter(), threshold=t)
                    expected = None if total > t else (total, len(rows))
                    assert store.evaluate(p) == expected, (seed, p, t)
                    assert store.rows_pulled == 0
                    assert store.counter.count == 1
                    assert store.rows(p) == rows
                    exceeded += expected is None
                several += len(rows) > len({sid for sid, _, _ in rows})
                fractions += isinstance(total, Fraction)
                unindexed += index is None
        assert several and fractions and unindexed and exceeded

    def test_partly_pulled_chains_sum_the_rest(self):
        # After a row question pulled the first holders' rows, evaluate sums
        # the remaining holders on top of those rows, exactly.
        partial = 0
        for seed in range(40):
            rng = random.Random(seed)
            db = generate_synthetic(rng.randint(2, 6), rng.randint(1, 3), 1, 8, 4, 4, seed)
            seq = rng.choice(db.sequences)
            k = rng.randint(1, len(seq))
            p = tuple(seq.items[j] for j in sorted(rng.sample(range(len(seq)), k)))
            rows = _reference_rows(db, p)
            total = rows_total(rows)
            for pull in range(len(rows) + 1):
                for t in (total, inf):
                    store = ChainStore(db, build_bit_index(db), threshold=t)
                    chain = store.tagged(p)
                    chain.exceeds(rows_total(rows[:pull]) - 1)
                    pulled = len(chain.rows)
                    assert store.evaluate(p) == (total, len(rows))
                    assert store.rows_pulled == pulled
                    assert store.rows(p) == rows
                    partial += 0 < pulled < len(rows)
        assert partial

    def test_column_sums_equal_the_rows(self):
        # The same databases as above: every column's sum over a pattern's
        # embeddings, counted by the forward and backward passes, equals the
        # sum over its rows. The chain is created and counted, but no row is
        # pulled; a chain already drained gives the same sums.
        several = fractions = unindexed = 0
        for seed in range(60):
            rng = random.Random(seed)
            db = generate_synthetic(rng.randint(1, 5), rng.randint(1, 3), 1, 10, 4, 4, seed)
            if seed % 2:
                thirds = {i: Fraction(v, 3) for i, v in db.utilities.values.items()}
                db = QSequenceDatabase(db.sequences, ExternalUtilityTable(thirds))
            index = None if seed % 3 == 0 else build_bit_index(db)
            patterns = {(1,) * rng.randint(1, 6) for _ in range(3)}
            for seq in db.sequences:
                patterns.add(seq.items)
                k = rng.randint(1, len(seq))
                patterns.add(tuple(seq.items[j] for j in sorted(rng.sample(range(len(seq)), k))))
            for p in sorted(patterns):
                rows = _reference_rows(db, p)
                store = ChainStore(db, index, UtilityCounter())
                expected = [sum(util[d] for _, _, util in rows) for d in range(len(p))]
                assert store.column_sums(p) == expected, (seed, p)
                assert store.rows_pulled == 0 and store.counter.count == 1
                assert store.rows(p) == rows
                assert store.column_sums(p) == expected
                several += len(rows) > len({sid for sid, _, _ in rows})
                fractions += any(isinstance(v, Fraction) for v in expected)
                unindexed += index is None
        assert several and fractions and unindexed

    def test_indexed_store_reads_items_from_the_index(self, monkeypatch):
        # With an index, neither the totals scan nor the column sums rebuild
        # a sequence's item tuple, even for holders with several embeddings.
        db = generate_synthetic(6, 2, 6, 10, 4, 4, 2)
        index = build_bit_index(db)
        patterns = [seq.items[:3] for seq in db.sequences]
        expected = [ChainStore(db, index).evaluate(p) for p in patterns]
        assert any(support > len(db) for _, support in expected)

        def no_items(seq):
            raise AssertionError(f"sid {seq.sid}'s items were rebuilt")

        monkeypatch.setattr(QSequence, "items", property(no_items))
        store = ChainStore(db, index)
        assert [store.evaluate(p) for p in patterns] == expected
        for p, (utility, _) in zip(patterns, expected):
            assert sum(store.column_sums(p)) == utility

    def test_drained_and_exceeding_chains_answer_from_rows(self, monkeypatch):
        # Once a chain is drained, or its pulled rows exceed the threshold,
        # evaluate reads no sequence again.
        db = generate_synthetic(6, 2, 6, 10, 4, 4, 2)
        pattern = db.sequences[0].items[:3]
        rows = _reference_rows(db, pattern)
        total = rows_total(rows)
        drained = ChainStore(db, build_bit_index(db), threshold=total)
        drained.rows(pattern)
        first = ChainStore(db, build_bit_index(db), threshold=0)
        assert first.tagged(pattern).exceeds(0)
        monkeypatch.setattr(chains, "enumerate_embeddings", None)
        monkeypatch.setattr(chains, "greedy_matches", None)
        assert drained.evaluate(pattern) == (total, len(rows))
        assert first.evaluate(pattern) is None


def _lazy(rows) -> LazyChain:
    """A lazy chain over the given rows, pulled one sequence at a time."""
    out: list = []

    def source():
        for _, group in groupby(rows, key=itemgetter(0)):
            group = list(group)
            out.extend(group)
            yield rows_total(group)

    return LazyChain(out, source())


def _thresholds(values) -> list:
    """Each value, and a threshold just below it: every utility here is a
    multiple of 1/3, so value - 1/6 lies strictly between two of them."""
    return sorted({t for v in values for t in (v, v - Fraction(1, 6))})


class TestPrefixBounds:
    def test_equals_column_bound_for_every_prefix(self):
        # Two or three items over long sequences give many embeddings per
        # pattern, so rows collapse onto shared (prefix, position) keys;
        # thirds make every utility a Fraction. Each marking is read from a
        # fresh store, so it pulls the chain only as far as it needs.
        collapsed = partial = 0
        for seed in range(40):
            rng = random.Random(seed)
            db = generate_synthetic(3, rng.randint(2, 3), 5, 8, 4, 4, seed)
            thirds = {i: Fraction(v, 3) for i, v in db.utilities.values.items()}
            db = QSequenceDatabase(db.sequences, ExternalUtilityTable(thirds))
            seq = rng.choice(db.sequences)
            k = rng.randint(2, min(5, len(seq)))
            cols = sorted(rng.sample(range(len(seq)), k))
            pattern = tuple(seq.items[j] for j in cols)
            rows = _store(db).rows(pattern)
            for p in range(k):
                bounds = {
                    i: column_bound(rows, [*range(p), i]) for i in range(p, k)
                }
                for t in _thresholds([0, *bounds.values()]):
                    chain = _store(db).tagged(pattern)
                    marked = chain.marked(p, k, t)
                    assert marked == [i for i in range(p, k) if bounds[i] > t]
                    partial += len(chain.rows) < len(rows)
                for i in range(p, k):
                    collapsed += len(restrict_rows(rows, [*range(p), i])) < len(rows)
        assert collapsed > 0 and partial > 0

    def test_no_rows_bound_to_zero(self):
        assert _lazy(()).marked(1, 4, -1) == [1, 2, 3]
        assert _lazy(()).marked(1, 4, 0) == []

    def test_one_row_equals_column_bound_for_every_prefix(self):
        # One row takes the lone-row path: each bound is a prefix sum plus
        # one entry, in int and in Fraction utilities alike. A drained chain
        # reads it from the row's utility tuple alone.
        rng = random.Random(1)
        for width in range(1, 7):
            pos = tuple(sorted(rng.sample(range(12), width)))
            for util in (
                tuple(rng.randint(1, 9) for _ in pos),
                tuple(Fraction(rng.randint(1, 9), 3) for _ in pos),
            ):
                rows = ((3, pos, util),)
                for p in range(width):
                    bounds = [
                        column_bound(rows, [*range(p), i]) for i in range(p, width)
                    ]
                    for t in _thresholds(bounds):
                        expected = [i for i, b in enumerate(bounds, p) if b > t]
                        assert _lazy(rows).marked(p, width, t) == expected
                        drained = LazyChain(rows, None, rows_total(rows))
                        assert drained.marked(p, width, t) == expected


class TestLazyChain:
    def test_restrictions_equal_the_row_kernels(self):
        # Nested lazy restrictions hold exactly the rows ``restrict_rows``
        # gives, and answer ``exceeds`` as the full restricted total does,
        # pulling their parents only as far as each answer needs. Two or
        # three items over long sequences make restricted rows collapse.
        collapsed = partial = 0
        for seed in range(60):
            rng = random.Random(seed)
            db = generate_synthetic(4, rng.randint(2, 3), 4, 9, 4, 4, seed)
            seq = rng.choice(db.sequences)
            k = rng.randint(2, len(seq))
            pattern = tuple(seq.items[j] for j in sorted(rng.sample(range(len(seq)), k)))
            rows = _store(db).rows(pattern)
            outer = sorted(rng.sample(range(k), rng.randint(1, k)))
            inner = sorted(rng.sample(range(len(outer)), rng.randint(1, len(outer))))
            once = restrict_rows(rows, outer)
            twice = restrict_rows(once, inner)
            collapsed += len(twice) < len(rows)
            for t in _thresholds([0, rows_total(once), rows_total(twice)]):
                store = _store(db)
                chain = store.tagged(pattern)
                a = chain.restrict(outer)
                b = a.restrict(inner)
                assert b.exceeds(t) == (rows_total(twice) > t)
                assert a.exceeds(t) == (rows_total(once) > t)
                partial += len(chain.rows) < len(rows)
                assert store.rows_pulled <= len(rows)
                assert (b.full(), a.full(), chain.full()) == (twice, once, rows)
                assert store.rows_pulled == len(rows)
                assert (b.total, a.total) == (rows_total(twice), rows_total(once))
        assert collapsed > 0 and partial > 0


    def test_drained_one_row_restricts_without_a_source(self):
        # A drained one-row chain restricts to a drained one-row chain with
        # its total, equal to the row kernels' restriction, in int and in
        # Fraction utilities alike; so do its restrictions in turn.
        rng = random.Random(2)
        for width in range(1, 7):
            pos = tuple(sorted(rng.sample(range(12), width)))
            for util in (
                tuple(rng.randint(1, 9) for _ in pos),
                tuple(Fraction(rng.randint(1, 9), 3) for _ in pos),
            ):
                rows = ((5, pos, util),)
                chain = _lazy(rows)
                chain.full()
                while chain.rows[0][1]:
                    n = len(chain.rows[0][1])
                    keep = sorted(rng.sample(range(n), rng.randint(0, n - 1)))
                    expected = restrict_rows(chain.rows, keep)
                    chain = chain.restrict(keep)
                    assert chain._source is None
                    assert (chain.rows, chain.total) == (expected, rows_total(expected))


def _groups(rows) -> list:
    """The rows of each sequence, in order: what one pull of a chain adds."""
    return [list(group) for _, group in groupby(rows, key=itemgetter(0))]


def _deciding_pulls(groups, decided) -> int:
    """How many sequences a scan must pull: up to the first one after which
    ``decided(rows so far)`` holds, or all of them."""
    for n in range(1, len(groups)):
        if decided([row for group in groups[:n] for row in group]):
            return n
    return len(groups)


class TestColumnViews:
    def test_scans_equal_the_row_kernels_and_stop_once_decided(self):
        # ``exceeds_on`` and ``lone_row`` read a chain's rows projected onto
        # a column subset. They answer as the row kernels do on the full
        # chain, from a chain pulled fully, partly or not at all, at
        # thresholds at, just below and just above each holder's running
        # sum, and pull no sequence past the one that decides the answer.
        # Two or three items over long sequences make projections collapse;
        # thirds make every utility a Fraction.
        collapsed = partial = identity = 0
        for seed in range(40):
            rng = random.Random(seed)
            db = generate_synthetic(4, rng.randint(2, 3), 4, 9, 4, 4, seed)
            thirds = {i: Fraction(v, 3) for i, v in db.utilities.values.items()}
            db = QSequenceDatabase(db.sequences, ExternalUtilityTable(thirds))
            seq = rng.choice(db.sequences)
            k = rng.randint(1, len(seq))
            pattern = tuple(seq.items[j] for j in sorted(rng.sample(range(len(seq)), k)))
            rows = _store(db).rows(pattern)
            groups = _groups(rows)
            for cols in {tuple(range(k))} | {
                tuple(sorted(rng.sample(range(k), rng.randint(1, k)))) for _ in range(3)
            }:
                restricted = restrict_rows(rows, cols)
                total = rows_total(restricted)
                assert column_bound(rows, cols) == total
                collapsed += len(restricted) < len(rows)
                identity += len(cols) == k
                lone = restricted[0][2] if len(restricted) == 1 else None
                lone_pulls = _deciding_pulls(
                    groups, lambda seen: len(restrict_rows(seen, cols)) > 1
                )
                running = [rows_total(restrict_rows(r, cols)) for r in groups]
                sums = [sum(running[:n]) for n in range(len(groups) + 1)]
                for t in {s + d for s in sums for d in (-Fraction(1, 6), 0, Fraction(1, 6))}:
                    pulls = _deciding_pulls(
                        groups, lambda seen: rows_total(restrict_rows(seen, cols)) > t
                    )
                    for before in {0, len(groups) // 2, len(groups)}:
                        for question in ("exceeds_on", "lone_row"):
                            chain = _store(db).tagged(pattern)
                            for _ in range(before):
                                chain._pull()
                            if question == "exceeds_on":
                                assert chain.exceeds_on(cols, t) == (total > t)
                                needed = pulls
                            else:
                                assert chain.lone_row(cols) == lone
                                needed = lone_pulls
                            pulled = len(_groups(chain.rows))
                            assert pulled == max(before, needed)
                            partial += pulled < len(groups)
                if lone is not None and len(cols) == k:
                    # The identity projection hands back the row's own tuple.
                    chain = _store(db).tagged(pattern)
                    assert chain.lone_row(cols) is chain.rows[0][2]
        assert collapsed > 0 and partial > 0 and identity > 0

    def test_no_rows_have_no_lone_row_and_sum_to_zero(self):
        assert _lazy(()).lone_row((0,)) is None
        assert _lazy(()).exceeds_on((0,), -1) is True
        assert _lazy(()).exceeds_on((0,), 0) is False


def _reference_rows(db, pattern) -> tuple:
    """Every embedding of the pattern, from every position subset of every
    sequence, in sequence then lexicographic order."""
    rows = []
    for seq in db.sequences:
        utils = db.sequence_utilities(seq)
        for pos in combinations(range(len(seq)), len(pattern)):
            if tuple(seq.items[j] for j in pos) == pattern:
                rows.append((seq.sid, pos, tuple(utils[j] for j in pos)))
    return tuple(rows)


def _recorded_scans(monkeypatch) -> list:
    """Record the (pattern, items) of every sequence a build scans."""
    visited = []
    embed = chains.enumerate_embeddings

    def enumerate_embeddings(pattern, seq, *args):
        visited.append((pattern, seq.items))
        return embed(pattern, seq, *args)

    monkeypatch.setattr(chains, "enumerate_embeddings", enumerate_embeddings)
    return visited


class TestScan:
    def test_build_visits_only_sequences_that_can_hold_the_pattern(
        self, monkeypatch
    ):
        db = generate_synthetic(60, 30, 3, 10, 5, 5, seed=5)
        rng = random.Random(5)
        patterns = []
        for _ in range(40):
            seq = rng.choice(db.sequences)
            k = rng.randint(1, len(seq))
            patterns.append(
                tuple(seq.items[j] for j in sorted(rng.sample(range(len(seq)), k)))
            )
        # Repeated items, longer than many sequences that hold the item.
        patterns += [(item,) * n for item in (1, 2, 3) for n in (2, 4, 6)]
        patterns.append((1, 2, 3, 4, 5, 6))
        expected = {p: ChainStore(db, None).rows(p) for p in patterns}

        visited = _recorded_scans(monkeypatch)
        store = _store(db)
        for p in patterns:
            assert store.rows(p) == expected[p]
        assert visited
        for pattern, items in visited:
            assert set(pattern) <= set(items)
            assert len(items) >= len(pattern)
        # Most sequences hold few of 30 items: the scan skips them unread.
        assert len(visited) < len(patterns) * len(db) // 4

    def test_build_skips_sequences_with_too_few_copies(self, monkeypatch):
        # Four items over sequences of 6-12 positions: most sequences hold
        # every item, but fewer copies of it than a repeating pattern has.
        db = generate_synthetic(80, 4, 6, 12, 5, 5, seed=3)
        rng = random.Random(3)
        patterns = [(item,) * n for item in range(1, 5) for n in (1, 2, 3, 5, 8)]
        patterns += [(1, 2, 1, 2), (3, 3, 4, 3), (1, 2, 3, 4), (2, 2, 2, 2, 2, 2, 1)]
        for _ in range(30):
            patterns.append(tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 7))))
        expected = {p: ChainStore(db, None).rows(p) for p in patterns}

        visited = _recorded_scans(monkeypatch)
        store = _store(db)
        for p in patterns:
            assert store.rows(p) == expected[p]
        for pattern, items in visited:
            assert all(items.count(x) >= pattern.count(x) for x in pattern)
        # The item masks alone would admit these; the copy counts skip them.
        skipped = [
            (p, seq.items)
            for p in patterns
            for seq in db.sequences
            if set(p) <= set(seq.items)
            and any(seq.items.count(x) < p.count(x) for x in p)
        ]
        assert len(skipped) > len(visited) // 2
        assert not set(skipped) & set(visited)

    def test_rows_equal_a_combinations_reference(self):
        # Alphabets of 1-3 items repeat items; odd seeds use Fraction
        # utilities. Item 9 is in no sequence, and patterns run longer than
        # the longest sequence.
        absent = longer = unique = several = 0
        for seed in range(80):
            rng = random.Random(seed)
            db = generate_synthetic(rng.randint(1, 5), rng.randint(1, 3), 1, 8, 4, 4, seed)
            if seed % 2:
                thirds = {i: Fraction(v, 3) for i, v in db.utilities.values.items()}
                db = QSequenceDatabase(db.sequences, ExternalUtilityTable(thirds))
            alphabet = sorted(db.utilities.values) + [9]
            patterns = {
                tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
                for _ in range(25)
            }
            for seq in db.sequences:
                k = rng.randint(1, len(seq))
                patterns.add(tuple(seq.items[j] for j in sorted(rng.sample(range(len(seq)), k))))
            index = build_bit_index(db)
            for p in sorted(patterns):
                expected = _reference_rows(db, p)
                assert ChainStore(db, index).rows(p) == expected
                assert ChainStore(db, None).rows(p) == expected
                absent += not expected
                longer += len(p) > max(len(seq) for seq in db.sequences)
                most = max(sum(sid == seq.sid for sid, _, _ in expected) for seq in db.sequences)
                unique += most == 1
                several += most > 1
        assert absent and longer and unique and several
