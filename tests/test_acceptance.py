"""Acceptance gate: one test per criterion, one pass/fail line each.

The seven checks cover exact worked-example values, three-way miner
equivalence on a randomized suite, theorem-level ordering properties of
supports and lower bounds, force-evaluated pruning safety, utility-computation
counter ordering at scale, exponential baseline growth, and sweep
monotonicity.
"""

from __future__ import annotations

import gc
import random
import time
from itertools import combinations

import pytest

from luspm import (
    MiningConfig,
    MiningShadow,
    SweepSpec,
    UtilityCounter,
    build_bit_index,
    build_max_non_con_seq_set,
    compute_utility,
    enumerate_embeddings,
    estimate_utility_computations,
    eups_prune,
    generate_synthetic,
    get_utility_chain,
    mine_baseline,
    mine_extend,
    mine_shrink,
    run_sweep,
    support,
)
from luspm.chains import ChainStore, column_bound, restrict_rows, rows_total
from luspm.harness import parse_metrics_csv

from conftest import A, B, C, random_database

# ---------------------------------------------------------------------------
# Criterion 2/4 shared randomized suite: 200 small databases with random
# thresholds and length caps.


def _random_suite():
    rng = random.Random(20260823)
    suite = []
    for trial in range(200):
        db = random_database(rng.randint(0, 10**9))
        min_util = rng.choice([1, 2, 4, 8, 15, 30, 60])
        max_len = rng.choice([None, None, 1, 2, 3, 5])
        suite.append((db, MiningConfig(min_util=min_util, max_len=max_len)))
    return suite


class _SafetyShadow(MiningShadow):
    def __init__(self):
        self.skips = []
        self.prunes = []
        self.cuts = []

    def sluspb_skip(self, pattern):
        self.skips.append(pattern)

    def sbips_prune(self, sequence, removed_index, position):
        self.prunes.append((sequence, removed_index, position))

    def ebisps_cut(self, accumulated, residual):
        self.cuts.append((accumulated, residual))


def test_c1_worked_example_fixtures(ref_db, ones_db):
    """Exact reference values; zero tolerance."""
    started = time.perf_counter()
    index = build_bit_index(ref_db)

    # [DERIVED] utility and support of <a,b> under the reference externals.
    assert compute_utility(get_utility_chain((A, B), ref_db, index)) == 66
    assert support((A, B), ref_db, index) == 8

    # [DERIVED] with all externals one: the chain of <a,b,c>, two restricted
    # lower bounds on it, and two pattern utilities.
    chain = get_utility_chain((A, B, C), ones_db)
    assert chain.rows == ((1, 2, 1), (1, 2, 2))
    assert compute_utility(chain, prefix_len=2) == 6  # LBS of <a,b>
    bc = tuple(tuple(row[q] for q in (1, 2)) for row in chain.rows)
    assert sum(sum(r) for r in bc) == 7  # LBS of <b,c>
    assert compute_utility(get_utility_chain((A, B), ones_db)) == 30
    assert compute_utility(get_utility_chain((C,), ref_db)) == 7

    # [DERIVED] early pruning of <a,b,c> at threshold 3 leaves <a,c>.
    pruned, pruned_chain = eups_prune((A, B, C), chain, 3)
    assert pruned == (A, C)
    assert pruned_chain.rows == ((1, 1), (1, 2))

    # [DERIVED] at a huge threshold the root set is the patterns of sids 1-5.
    roots = build_max_non_con_seq_set(ChainStore(ref_db, index), 10_000).roots
    assert roots == tuple(s.items for s in ref_db.sequences[:5])

    assert time.perf_counter() - started < 1.0


def test_c2_three_way_equivalence():
    """All three miners return identical (pattern, utility, support) sets on
    200 randomized databases; zero mismatches."""
    started = time.perf_counter()
    mismatches = 0
    for db, cfg in _random_suite():
        base = mine_baseline(db, cfg).as_set()
        if mine_shrink(db, cfg).as_set() != base:
            mismatches += 1
        elif mine_extend(db, cfg).as_set() != base:
            mismatches += 1
    assert mismatches == 0
    assert time.perf_counter() - started < 300


def test_c3_theorem_property_suite():
    """1,000 random (F, S, Q) nested triples; zero ordering violations.

    Checked per triple: restricting F's embeddings to the columns of a
    subsequence S yields no more distinct S-embeddings than S's support; a
    restricted-chain lower bound never exceeds the true utility of the
    restricted pattern; every chain column sum is at most the chain total; and bounds under proper non-empty column nesting
    S < Q < F are strictly ordered below u(F).
    """
    started = time.perf_counter()
    rng = random.Random(991)
    violations = {"support": 0, "lower_bound": 0, "column": 0, "nesting": 0}
    produced = 0
    while produced < 1000:
        db = random_database(rng.randint(0, 10**9))
        index = build_bit_index(db)
        store = ChainStore(db, index)
        seq = rng.choice(db.sequences)
        if len(seq) < 3:
            continue
        f_cols = sorted(
            rng.sample(range(len(seq)), rng.randint(3, len(seq)))
        )
        F = tuple(seq.items[j] for j in f_cols)
        q_cols = sorted(rng.sample(range(len(F)), rng.randint(2, len(F) - 1)))
        s_cols = sorted(rng.sample(q_cols, rng.randint(1, len(q_cols) - 1)))
        Q = tuple(F[c] for c in q_cols)
        S = tuple(F[c] for c in s_cols)
        produced += 1

        rows = store.rows(F)
        u_f = rows_total(rows)

        # Support counts embeddings, so support(F) <= support(S) is no theorem
        # (see README); what holds, and what the miners' deduplicated
        # restriction relies on, is the bound on distinct restricted rows.
        if len(restrict_rows(rows, s_cols)) > support(S, db, index):
            violations["support"] += 1
        if column_bound(rows, s_cols) > store.evaluate(S)[0]:
            violations["lower_bound"] += 1
        chain = store.chain(F)
        if any(chain.column_sum(q) > u_f for q in range(chain.length)):
            violations["column"] += 1
        if not (
            column_bound(rows, s_cols) < column_bound(rows, q_cols) < u_f
        ):
            violations["nesting"] += 1

    assert time.perf_counter() - started < 60
    assert violations == {
        "support": 0,
        "lower_bound": 0,
        "column": 0,
        "nesting": 0,
    }


def test_c4_pruning_safety_shadows():
    """Force-evaluating everything each pruning rule discarded on the
    criterion-2 suite finds only utilities above the threshold."""
    violations = 0
    for db, cfg in _random_suite():
        min_util = cfg.min_util
        store = ChainStore(db, build_bit_index(db))
        shadow = _SafetyShadow()
        mine_shrink(db, cfg, shadow=shadow)
        mine_extend(db, cfg, shadow=shadow)

        for pattern in shadow.skips:
            if store.evaluate(pattern)[0] <= min_util:
                violations += 1
        for sequence, removed_index, position in shadow.prunes:
            prefix = sequence[:removed_index]
            tail = [
                c for c in range(removed_index, len(sequence)) if c != position
            ]
            for k in range(len(tail) + 1):
                for extra in combinations(tail, k):
                    cols = sorted([position, *extra])
                    candidate = prefix + tuple(sequence[c] for c in cols)
                    if store.evaluate(candidate)[0] <= min_util:
                        violations += 1
        for accumulated, residual in shadow.cuts:
            for k in range(len(residual) + 1):
                for extra in combinations(range(len(residual)), k):
                    candidate = accumulated + tuple(residual[i] for i in extra)
                    if store.evaluate(candidate)[0] <= min_util:
                        violations += 1
    assert violations == 0


def test_c5_utility_computation_ordering():
    """On three seeded 1,000-sequence databases (average length 20), the
    utility-computation counts satisfy extend <= shrink <= exhaustive
    estimate at each of four thresholds."""
    for seed in (11, 22, 33):
        db = generate_synthetic(1000, 8, 18, 22, 5, 5, seed=seed)
        estimate = estimate_utility_computations(db)
        for min_util in (2, 3, 5, 8):
            cfg = MiningConfig(min_util=min_util)
            shrink_counter = UtilityCounter()
            extend_counter = UtilityCounter()
            shrink_result = mine_shrink(db, cfg, shrink_counter)
            extend_result = mine_extend(db, cfg, extend_counter)
            assert extend_result.as_set() == shrink_result.as_set()
            assert extend_counter.count <= shrink_counter.count <= estimate


def test_c6_baseline_exponential_growth():
    """Baseline runtime at least doubles per two extra items on a single
    sequence grown from 14 to 20 positions; under two minutes total."""
    started = time.perf_counter()
    cfg = MiningConfig(min_util=1)
    mine_baseline(generate_synthetic(1, 12, 12, 12, 3, 3, seed=4), cfg)  # warmup
    runtimes = []
    for n in (14, 16, 18, 20):
        db = generate_synthetic(1, 12, n, n, 3, 3, seed=4)
        # Collect the heap earlier runs left behind, so that no cyclic
        # collection lands inside one timed call and skews its ratio.
        gc.collect()
        t0 = time.perf_counter()
        mine_baseline(db, cfg, cap=None)
        runtimes.append(time.perf_counter() - t0)
    ratios = [b / a for a, b in zip(runtimes, runtimes[1:])]
    assert all(r >= 2 for r in ratios), (runtimes, ratios)
    assert time.perf_counter() - started < 120


def test_c7_monotonicity_sweeps():
    """Pattern counts are non-decreasing in the threshold and in the length
    cap on every sweep row."""
    for seed in (1, 2):
        db = generate_synthetic(8, 4, 2, 7, 3, 3, seed=seed)
        spec = SweepSpec(min_utils=(2, 5, 10, 25, 60), max_lens=(1, 2, 4, None))
        # run_sweep raises if any monotonicity violation is present; verify
        # the rows directly as well.
        rows = parse_metrics_csv(run_sweep(spec, db))
        assert all(r["status"] == "ok" for r in rows)
        for algo in ("base", "shrink", "extend"):
            for cap in ("1", "2", "4", ""):
                counts = [
                    (int(r["min_util"]), int(r["patterns"]))
                    for r in rows
                    if r["algo"] == algo and r["max_len"] == cap
                ]
                counts.sort()
                values = [p for _, p in counts]
                assert values == sorted(values)
