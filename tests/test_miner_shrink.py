"""Shrinkage miner: oracle equivalence and pruning safety."""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import inf

import pytest
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
from luspm.chains import column_bound, restrict_rows, rows_total
from luspm.miner_base import LuspRecord, LuspResult, first_visit
from luspm.miner_extend import _ExtendMiner
from luspm.miner_shrink import _ShrinkMiner
from luspm.preprocess import build_max_non_con_seq_set
from luspm.seqdb import comparison_threshold, resolve_min_util

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


class _EventLog(MiningShadow):
    """Every pruning event of a run, in order."""

    def __init__(self):
        self.events = []

    def sluspb_skip(self, pattern):
        self.events.append(("skip", pattern))

    def sbips_prune(self, sequence, removed_index, position):
        self.events.append(("prune", sequence, removed_index, position))

    def ebisps_cut(self, accumulated, residual):
        self.events.append(("cut", accumulated, residual))


def _observed(miner, db, cfg, monkeypatch, eager=False):
    """A run's result set, utility computations, patterns passed to
    ``ChainStore.evaluate`` in order, pruning events in order and rows
    pulled. With ``eager``, every chain is pulled in full when it is
    created."""
    evaluated = []
    stores = {}
    evaluate = ChainStore.evaluate

    def recording_evaluate(store, pattern):
        stores[id(store)] = store
        evaluated.append(pattern)
        return evaluate(store, pattern)

    with monkeypatch.context() as m:
        m.setattr(ChainStore, "evaluate", recording_evaluate)
        if eager:
            tagged = ChainStore.tagged

            def full_tagged(store, pattern):
                chain = tagged(store, pattern)
                chain.full()
                return chain

            m.setattr(ChainStore, "tagged", full_tagged)
        counter = UtilityCounter()
        log = _EventLog()
        result = miner(db, cfg, counter, log)
    pulled = sum(store.rows_pulled for store in stores.values())
    return (result.as_set(), counter.count, evaluated, log.events), pulled


def _reference_shrinkage(db, cfg):
    """Shrinkage search whose depth regime holds materialized rows, with the
    miner's ``_enter`` and ``first_visit`` structure and no laziness: a
    depth-regime node holds its ancestor's full chain restricted to its own
    columns by ``restrict_rows``, and its bounds are ``rows_total`` and
    ``column_bound`` sums of those rows. The result set, the utility
    computations, the patterns evaluated in order and the skip and prune
    events in order, as ``_observed`` gives them."""
    min_util = resolve_min_util(cfg, db)
    threshold = comparison_threshold(min_util, db)
    cap = inf if cfg.max_len is None else cfg.max_len
    counter = UtilityCounter()
    store = ChainStore(db, build_bit_index(db), counter, threshold=threshold)
    expanded, admitted, evaluated, events = {}, {}, [], []

    def enter(q, p):
        evaluated.append(q)
        totals = store.evaluate(q)
        if totals is not None:
            if len(q) <= cap:
                admitted.setdefault(q, totals)
            if p < len(q):
                exact(q, p)
        elif p < len(q):
            depth(q, store.rows(q), p)

    def exact(s, p):
        if not first_visit(expanded, s, p):
            return
        if p + 1 < len(s) and p < cap:
            exact(s, p + 1)
        if len(s) > 1:
            enter(s[:p] + s[p + 1 :], p)

    def screen(q, rows):
        if len(q) > cap:
            return False
        if rows_total(rows) > threshold:
            events.append(("skip", q))
            return False
        return True

    def depth(s, rows, p):
        if not first_visit(expanded, s, p):
            return
        marked = [
            i for i in range(p, len(s)) if column_bound(rows, [*range(p), i]) > threshold
        ]
        if marked:
            events.extend(("prune", s, p, i) for i in marked)
            keep = [j for j in range(len(s)) if j not in marked]
            s, rows = tuple(s[j] for j in keep), restrict_rows(rows, keep)
            if s and screen(s, rows):
                enter(s, len(s))
        if p + 1 < len(s) and p < cap:
            depth(s, rows, p + 1)
        if p >= len(s) or len(s) == 1:
            return
        q = s[:p] + s[p + 1 :]
        child = restrict_rows(rows, [*range(p), *range(p + 1, len(s))])
        if screen(q, child):
            enter(q, p)
        elif p < len(q):
            depth(q, child, p)

    for root in build_max_non_con_seq_set(store, threshold).roots:
        enter(root, 0)
    records = [LuspRecord(q, u, s) for q, (u, s) in admitted.items()]
    result = LuspResult.from_records(records, min_util, cfg.max_len)
    return result.as_set(), counter.count, evaluated, events


class TestLaziness:
    def test_lazy_chains_decide_as_full_chains_do(self, monkeypatch):
        # Random databases at two thresholds each, every length cap in
        # turn; a c5-shaped database; copies of one item where every
        # pattern is a result and where most are not; a sigma threshold.
        # Both miners must make the same decisions, in the same order, with
        # chains pulled lazily as with chains pulled in full.
        cases = []
        for seed in range(300):
            rng = random.Random(seed)
            db = random_database(seed)
            max_len = (None, 1, 2, 3)[seed % 4]
            for min_util in rng.sample([1, 2, 4, 8, 15, 30, 60], 2):
                cases.append((db, MiningConfig(min_util=min_util, max_len=max_len)))
        c5_shaped = generate_synthetic(100, 8, 18, 22, 5, 5, 22)
        cases.append((c5_shaped, MiningConfig(min_util=8)))
        for n in (8, 12):
            copies = _repeated_db([[(1, 1 + k % 3) for k in range(n)]], [1])
            for min_util in (10**9, 12):
                cases.append((copies, MiningConfig(min_util=min_util)))
        sigma_db = generate_synthetic(40, 12, 6, 10, 5, 5, 3)
        cases.append((sigma_db, MiningConfig(sigma=Fraction(1, 100))))
        lazy_rows = eager_rows = 0
        for db, cfg in cases:
            for miner in (mine_shrink, mine_extend):
                lazy, pulled = _observed(miner, db, cfg, monkeypatch)
                eager, everything = _observed(miner, db, cfg, monkeypatch, eager=True)
                assert lazy == eager, (miner.__name__, cfg)
                assert pulled <= everything
                lazy_rows += pulled
                eager_rows += everything
        assert lazy_rows < eager_rows

    @pytest.mark.parametrize(
        "db, cfg",
        [
            (random_database(seed, max_seqs=10), MiningConfig(
                min_util=random.Random(seed).randint(1, 60),
                max_len=(None, 1, 2, 3)[seed % 4],
            ))
            for seed in range(60)
        ]
        + [
            (_repeated_db([[(1, 1 + k % 3) for k in range(n)]], [1]), MiningConfig(min_util=u))
            for n in (8, 11)
            for u in (5, 12, 30, 10**9)
        ]
        + [(generate_synthetic(40, 12, 6, 10, 5, 5, 3), MiningConfig(sigma=Fraction(1, 100)))],
    )
    def test_views_decide_as_restricted_rows_do(self, monkeypatch, db, cfg):
        # The search on lazy column views of its ancestors' chains must take
        # every decision that materialized, restricted rows give: the same
        # results, utility computations, evaluations in order, and skips
        # and prunes in order.
        observed, _ = _observed(mine_shrink, db, cfg, monkeypatch)
        assert observed == _reference_shrinkage(db, cfg)

    def test_dense_pulls_a_quarter_of_the_rows(self, monkeypatch):
        # Every evaluation on the benchmark's dense database exceeds the
        # threshold; a handful of rows show it. Pulled in full, the chains
        # hold 9206 rows.
        db = generate_synthetic(30, 4, 13, 14, 5, 5, 7)
        cfg = MiningConfig(min_util=8)
        (found, ucomp, _, _), pulled = _observed(mine_shrink, db, cfg, monkeypatch)
        _, everything = _observed(mine_shrink, db, cfg, monkeypatch, eager=True)
        assert not found and ucomp == 133
        assert everything == 9206
        assert pulled <= 9064 // 4

    def test_results_are_summed_without_rows(self):
        # Every pattern of 11 copies of one item is a result, and its chain
        # holds C(11, k) rows for k copies, 2^11 - 1 in all. Evaluation sums
        # them without rows, and root construction counts its column sums,
        # so no row is pulled at all.
        rng = random.Random(0)
        db = _repeated_db([[(1, rng.randint(1, 3)) for _ in range(11)]], [1])
        cfg = MiningConfig(min_util=10**9)
        miner = _ShrinkMiner(db, cfg, None, None)
        assert miner.run().as_set() == mine_baseline(db, cfg).as_set()
        assert miner.store.rows_pulled == 0

    def test_many_copies_need_no_rows(self):
        # 18 copies of one item: 2^18 - 1 embeddings over 18 results. Both
        # miners return the baseline's results from at most one row.
        rng = random.Random(0)
        db = _repeated_db([[(1, rng.randint(1, 3)) for _ in range(18)]], [1])
        cfg = MiningConfig(min_util=10**9)
        expected = mine_baseline(db, cfg).as_set()
        assert len(expected) == 18
        for miner_class in (_ShrinkMiner, _ExtendMiner):
            miner = miner_class(db, cfg, None, None)
            assert miner.run().as_set() == expected
            assert miner.store.rows_pulled <= 1


def _distinct(n):
    """One sequence of n distinct items, each of utility 1."""
    return _repeated_db([[(i, 1) for i in range(1, n + 1)]], [1] * n)


def _depth():
    """The number of frames on the calling thread's stack."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


class _Pause(MiningShadow):
    """Calls ``hook`` at every lower-bound skip until it returns true."""

    def __init__(self, hook):
        self.hook = hook

    def sluspb_skip(self, pattern):
        if self.hook is not None and self.hook():
            self.hook = None


class TestRecursionGuard:
    def test_concurrent_runs_keep_each_others_headroom(self):
        # A shallow run starts first and returns while a deep run is more
        # than 1000 frames down. The shallow run must not take away the
        # deep run's headroom, and the limit must end where it started.
        # Every skip of either run happens inside its search.
        start = sys.getrecursionlimit()
        shallow_started, deep_is_deep, shallow_done = (threading.Event() for _ in range(3))
        results, errors = {}, []

        def wait_for_deep_run():
            shallow_started.set()
            assert deep_is_deep.wait(60)
            return True

        def pause_when_deep():
            if _depth() <= 1000:
                return False
            deep_is_deep.set()
            assert shallow_done.wait(60)
            return True

        def run(name, n, hook, done=None):
            try:
                results[name] = mine_shrink(_distinct(n), MiningConfig(min_util=1),
                                            shadow=_Pause(hook))
            except BaseException as exc:  # reported by the main thread
                errors.append((name, exc))
            finally:
                if done is not None:
                    done.set()

        shallow = threading.Thread(
            target=run, args=("shallow", 5, wait_for_deep_run, shallow_done)
        )
        deep = threading.Thread(target=run, args=("deep", 1500, pause_when_deep))
        try:
            shallow.start()
            assert shallow_started.wait(60)
            deep.start()
            shallow.join()
            deep.join()
            assert not errors, errors
            assert deep_is_deep.is_set()
            for name, n in (("shallow", 5), ("deep", 1500)):
                expected = {((i,), 1, 1) for i in range(1, n + 1)}
                assert results[name].as_set() == expected
            assert sys.getrecursionlimit() == start
        finally:
            sys.setrecursionlimit(start)

    def test_long_inputs_mine_under_a_tight_limit(self):
        # The headroom comes from the roots' lengths, so 1500 positions mine
        # from a caller with 60 frames to spare. Shrink is not run on 1500
        # copies of one item: it takes minutes.
        start = sys.getrecursionlimit()
        tight = _depth() + 60
        try:
            sys.setrecursionlimit(tight)
            result = mine_shrink(_distinct(1500), MiningConfig(min_util=1))
            assert result.as_set() == {((i,), 1, 1) for i in range(1, 1501)}
            assert sys.getrecursionlimit() == tight
            copies = _repeated_db([[(1, 1 + k % 3) for k in range(1500)]], [1])
            cfg = MiningConfig(min_util=10**9, max_len=2)
            expected = mine_baseline(copies, cfg).as_set()
            assert mine_extend(copies, cfg).as_set() == expected
            assert sys.getrecursionlimit() == tight
        finally:
            sys.setrecursionlimit(start)
