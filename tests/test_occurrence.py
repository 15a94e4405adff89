"""Embeddings, chains, utility and support."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import luspm
from luspm import (
    EmbeddingCapExceeded,
    ExternalUtilityTable,
    QItem,
    QSequence,
    QSequenceDatabase,
    SUChain,
    UtilityCounter,
    build_bit_index,
    compute_utility,
    enumerate_embeddings,
    get_utility_chain,
    is_subsequence,
    support,
)
from luspm.chains import ChainStore, restrict_rows

from conftest import A, B, C, random_database


class TestIsSubsequence:
    def test_basic(self):
        assert is_subsequence((1, 3), (1, 2, 3))
        assert not is_subsequence((3, 1), (1, 2, 3))
        assert is_subsequence((), (1,))

    @given(
        st.lists(st.integers(1, 4), max_size=6),
        st.lists(st.integers(1, 4), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bruteforce(self, short, long):
        from itertools import combinations

        expected = any(
            tuple(long[i] for i in idx) == tuple(short)
            for idx in combinations(range(len(long)), len(short))
        )
        assert is_subsequence(tuple(short), tuple(long)) == expected


class TestEnumerateEmbeddings:
    def test_all_embeddings_found(self, ref_db):
        # [DERIVED] sid 4 is f e a b a b: <a,b> matches (2,3), (2,5), (4,5).
        seq = ref_db.sequences[3]
        embs = enumerate_embeddings((A, B), seq)
        assert embs == [(2, 3), (2, 5), (4, 5)]

    def test_index_is_transparent(self, ref_db):
        index = build_bit_index(ref_db)
        for seq in ref_db.sequences:
            for pattern in ((A,), (A, B), (A, B, C), (C, A)):
                assert enumerate_embeddings(pattern, seq) == enumerate_embeddings(
                    pattern, seq, index
                )

    def test_index_masks_mark_holding_sequences(self, ref_db):
        # Bit k of masks[item][c - 1] marks a sequence with c or more copies,
        # up to the most copies any sequence holds.
        index = build_bit_index(ref_db)
        assert set(index.masks) == {x for seq in ref_db.sequences for x in seq.items}
        for item, at_least in index.masks.items():
            assert len(at_least) == max(seq.items.count(item) for seq in ref_db.sequences)
            for k, seq in enumerate(ref_db.sequences):
                copies = seq.items.count(item)
                for c, mask in enumerate(at_least, 1):
                    assert bool(mask >> k & 1) == (copies >= c)
        # An index without masks would give empty chains; it cannot be built.
        with pytest.raises(TypeError):
            luspm.BitIndex(index.positions)

    def test_strictly_increasing(self, ref_db):
        for seq in ref_db.sequences:
            for emb in enumerate_embeddings((A, A), seq):
                assert emb[0] < emb[1]

    def test_embedding_cap(self, ref_db):
        seq = ref_db.sequences[0]  # holds three a positions
        with pytest.raises(EmbeddingCapExceeded):
            enumerate_embeddings((A,), seq, max_embeddings=2)

    def test_rejects_empty_pattern(self, ref_db):
        with pytest.raises(ValueError):
            enumerate_embeddings((), ref_db.sequences[0])

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=9),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.sampled_from([None, 0, 1, 4]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_in_order(self, items, pattern, cap):
        seq = QSequence(1, tuple(QItem(i, 1) for i in items))
        expected = [
            idx
            for idx in combinations(range(len(items)), len(pattern))
            if tuple(items[i] for i in idx) == tuple(pattern)
        ]
        if cap is not None and len(expected) > cap:
            with pytest.raises(EmbeddingCapExceeded):
                enumerate_embeddings(tuple(pattern), seq, max_embeddings=cap)
        else:
            embs = enumerate_embeddings(tuple(pattern), seq, max_embeddings=cap)
            assert embs == expected

    def test_long_pattern_in_fresh_interpreter(self):
        # Root construction builds the chain of a whole 1500-item sequence
        # before any miner code has touched the recursion limit, so a fresh
        # interpreter must get through it at the default limit.
        code = (
            "from luspm import *\n"
            "seq = QSequence(1, tuple(QItem(i, 1) for i in range(1, 1501)))\n"
            "db = QSequenceDatabase((seq,), ExternalUtilityTable.uniform(range(1, 1501)))\n"
            "cfg = MiningConfig(min_util=0)\n"
            "print(len(mine_shrink(db, cfg)), len(mine_extend(db, cfg)))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(luspm.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


class TestSupport:
    def test_reference_values(self, ref_db):
        # [PAPER-STYLE WORKED VALUES, DERIVED] support counts every embedding.
        assert support((A, B), ref_db) == 8
        assert support((A, B, C), ref_db) == 2

    def test_index_is_transparent(self, ref_db):
        index = build_bit_index(ref_db)
        for pattern in ((A,), (B,), (A, B), (A, B, C)):
            assert support(pattern, ref_db) == support(pattern, ref_db, index)

    def test_support_is_not_anti_monotone(self):
        # [DERIVED] In <2,2,5,5,3,3> the super-pattern <2,2,5,3,3> has two
        # embeddings (either 5) and <2,2,3,3> only one; both of the former
        # collapse onto it, so its restricted chain keeps a single row.
        seq = QSequence(1, tuple(QItem(i, 1) for i in (2, 2, 5, 5, 3, 3)))
        db = QSequenceDatabase((seq,), ExternalUtilityTable.uniform((2, 3, 5)))
        full, sub = (2, 2, 5, 3, 3), (2, 2, 3, 3)
        assert support(full, db) == 2
        assert support(sub, db) == 1
        rows = ChainStore(db, build_bit_index(db)).rows(full)
        assert len(restrict_rows(rows, (0, 1, 3, 4))) == 1


class TestUtilityChain:
    def test_reference_chain_ones(self, ones_db):
        # [DERIVED] with externals all one the chain of <a,b,c> has one row in
        # sid 1 and one in sid 2: (1,2,1) and (1,2,2).
        chain = get_utility_chain((A, B, C), ones_db)
        assert chain.rows == ((1, 2, 1), (1, 2, 2))
        assert chain.support == 2

    def test_reference_utilities(self, ref_db, ones_db):
        # [DERIVED] u(<a,b>) = 66 with the reference externals, 30 with ones.
        assert compute_utility(get_utility_chain((A, B), ref_db)) == 66
        assert compute_utility(get_utility_chain((A, B), ones_db)) == 30
        # [DERIVED] u(<c>) = 7 with the reference externals.
        assert compute_utility(get_utility_chain((C,), ref_db)) == 7

    def test_prefix_sum_is_lbs(self, ones_db):
        chain = get_utility_chain((A, B, C), ones_db)
        assert compute_utility(chain, prefix_len=2) == 6

    def test_counter_increments_once_per_chain(self, ref_db):
        counter = UtilityCounter()
        get_utility_chain((A, B), ref_db, counter=counter)
        get_utility_chain((A,), ref_db, counter=counter)
        assert counter.count == 2

    def test_chain_row_width_validated(self):
        with pytest.raises(ValueError):
            SUChain(2, ((1,),))

    def test_column_sum(self, ones_db):
        chain = get_utility_chain((A, B, C), ones_db)
        assert [chain.column_sum(q) for q in range(3)] == [2, 4, 3]


class TestNaiveOracleIdentity:
    """The indexed fast path must agree with brute-force enumeration."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_chain_equal_with_and_without_index(self, seed):
        db = random_database(seed)
        index = build_bit_index(db)
        rng = random.Random(seed)
        seq = rng.choice(db.sequences)
        k = rng.randint(1, len(seq))
        pattern = tuple(
            seq.items[j] for j in sorted(rng.sample(range(len(seq)), k))
        )
        fast = get_utility_chain(pattern, db, index)
        slow = get_utility_chain(pattern, db, None)
        assert fast.rows == slow.rows
        assert support(pattern, db, index) == support(pattern, db)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_support_equals_chain_rows(self, seed):
        db = random_database(seed)
        seq = db.sequences[0]
        pattern = seq.items[: min(3, len(seq))]
        assert support(pattern, db) == get_utility_chain(pattern, db).support
