"""Early pruning and root-set construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luspm import (
    MaxNonConSeqSet,
    UtilityCounter,
    build_bit_index,
    build_max_non_con_seq_set,
    compute_utility,
    eups_prune,
    get_utility_chain,
    is_subsequence,
)
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
    def test_antichain_enforced(self):
        with pytest.raises(ValueError):
            MaxNonConSeqSet(((A,), (A, B)))

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
        # Every pruned sequence pattern embeds in some root, and roots form an
        # antichain (validated by the dataclass invariant on construction).
        for seq in db.sequences:
            chain = get_utility_chain(seq.items, db, index)
            pruned, _ = eups_prune(seq.items, chain, min_util)
            if pruned:
                assert any(is_subsequence(pruned, r) for r in roots)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_pruned_columns_never_low_utility(self, seed):
        # A removed column's sum is a lower bound on the utility of any
        # pattern using that position, so singletons of removed positions must
        # exceed the threshold.
        db = random_database(seed)
        index = build_bit_index(db)
        min_util = 5
        for seq in db.sequences:
            chain = get_utility_chain(seq.items, db, index)
            for q in range(chain.length):
                if chain.column_sum(q) > min_util:
                    item_chain = get_utility_chain((seq.items[q],), db, index)
                    assert compute_utility(item_chain) > min_util
