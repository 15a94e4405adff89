"""Database model, parsing, serialization and configuration."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luspm import (
    ExternalUtilityTable,
    MiningConfig,
    ParseError,
    QItem,
    QSequence,
    UtilityTableError,
    database_utility,
    generate_synthetic,
    parse_spmf,
    parse_utility_table,
    resolve_min_util,
    serialize_spmf,
    serialize_utility_table,
)

from conftest import random_database


class TestQSequence:
    def test_items_and_quantities(self):
        seq = QSequence(1, (QItem(3, 2), QItem(1, 4)))
        assert seq.items == (3, 1)
        assert seq.quantities == (2, 4)

    def test_len(self):
        assert len(QSequence(1, (QItem(1, 1),))) == 1

    def test_rejects_nonpositive_quantity(self):
        with pytest.raises(ValueError):
            QSequence(1, (QItem(1, 0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QSequence(1, ())


class TestExternalUtilityTable:
    def test_lookup(self):
        table = ExternalUtilityTable({1: 2, 2: Fraction(1, 2)})
        assert table.value(1) == 2
        assert table.value(2) == Fraction(1, 2)

    def test_uniform(self):
        table = ExternalUtilityTable.uniform([1, 2, 3], 4)
        assert all(table.value(i) == 4 for i in (1, 2, 3))

    def test_missing_item_raises(self):
        with pytest.raises(UtilityTableError):
            ExternalUtilityTable({1: 2}).value(2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExternalUtilityTable({1: 0})


class TestSequenceUtilities:
    def test_reference_per_sequence_totals(self, ref_db):
        # [DERIVED] quantity x external utility per position, summed per
        # sequence: 28, 14, 17, 21, 12, 12.
        totals = [sum(ref_db.sequence_utilities(s)) for s in ref_db.sequences]
        assert totals == [28, 14, 17, 21, 12, 12]

    def test_reference_database_utility(self, ref_db):
        # [DERIVED] sum of the per-sequence totals above.
        assert database_utility(ref_db) == 104


class TestSpmfRoundTrip:
    def test_parse_basic(self):
        seqs = parse_spmf("1[2] 3[1] -1 2[1] -2\n")
        assert seqs[0].items == (1, 3, 2)
        assert seqs[0].quantities == (2, 1, 1)

    def test_default_quantity_is_one(self):
        seqs = parse_spmf("5 -2\n")
        assert seqs[0].quantities == (1,)

    def test_requires_terminator(self):
        with pytest.raises(ParseError):
            parse_spmf("1[2] 3[1]\n")

    def test_bad_token_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_spmf("1[2] -2\nx[1] -2\n")
        assert err.value.line_no == 2

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, seed):
        db = random_database(seed)
        parsed = parse_spmf(serialize_spmf(db.sequences))
        assert tuple(s.elements for s in parsed) == tuple(
            s.elements for s in db.sequences
        )


def _fresh_elements(text):
    """Every line's elements, one new ``QItem`` per position: the reference
    the shared elements must equal, for valid input."""
    out = []
    for line in text.splitlines():
        tokens = [t for t in line.split()[:-1] if t != "-1"]
        if tokens:
            out.append(tuple(
                QItem(int(t.partition("[")[0]), int(t.partition("[")[2][:-1] or 1))
                for t in tokens
            ))
    return tuple(out)


class TestSharedElements:
    def test_one_element_per_distinct_token(self):
        seqs = parse_spmf("1[2] -1 3 -1 1[2] -2\n3 1[2] -1 1[3] -2\n")
        first, second = seqs
        assert first.elements[0] is first.elements[2] is second.elements[1]
        assert first.elements[1] is second.elements[0]
        assert second.elements[2] is not first.elements[0]
        assert second.elements[2] == QItem(1, 3)
        distinct = {id(e) for s in seqs for e in s.elements}
        assert len(distinct) == 3

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_elements_equal_fresh_items_per_position(self, seed):
        text = serialize_spmf(random_database(seed).sequences)
        parsed = parse_spmf(text)
        assert tuple(s.elements for s in parsed) == _fresh_elements(text)
        # Equal tokens share one object, and distinct ones do not.
        by_value = {}
        for e in (e for s in parsed for e in s.elements):
            assert by_value.setdefault(e, e) is e

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("4[2] -1 -2\n4[2] 4[2 -2\n", 2, "malformed token '4[2'"),
            ("4[2] -1 -2\n4[2] -2 5 -2\n", 2, "-2 before end of line"),
            ("4[2] -2\n-2 -2\n", 2, "-2 before end of line"),
            ("0[1] -2\nx[0] -2\n", 2, "malformed token 'x[0]'"),
            ("3[1] -2\n3[1] 3[0] -2\n", 2, "quantity 0 < 1 for item 3"),
            ("1 -2\n1 -1 -2\n-1 -2\n", 3, "empty sequence"),
        ],
    )
    def test_errors_after_a_cached_look_alike_keep_their_line(
        self, text, line_no, message
    ):
        with pytest.raises(ParseError) as err:
            parse_spmf(text)
        assert err.value.line_no == line_no
        assert str(err.value) == f"line {line_no}: {message}"

    def test_bytes_and_any_whitespace(self):
        text = "1[2]\t-1  3 -1\t\t1[2] -2\n\n  2   -2  \n"
        expected = parse_spmf("1[2] -1 3 -1 1[2] -2\n2 -2\n")
        for source in (text, text.encode("ascii")):
            parsed = parse_spmf(source)
            assert parsed == expected
            assert parsed[0].elements[0] is parsed[0].elements[2]


class TestUtilityTableFormat:
    def test_parse(self):
        table = parse_utility_table("1 2\n2 1/2\n")
        assert table.value(1) == 2
        assert table.value(2) == Fraction(1, 2)

    def test_rejects_duplicates(self):
        with pytest.raises(ParseError):
            parse_utility_table("1 2\n1 3\n")

    def test_rejects_nonpositive(self):
        with pytest.raises(ParseError):
            parse_utility_table("1 0\n")

    def test_round_trip(self):
        table = parse_utility_table("1 2\n7 5/3\n")
        again = parse_utility_table(serialize_utility_table(table))
        assert again.values == table.values


class TestMiningConfig:
    def test_requires_exactly_one_threshold(self):
        with pytest.raises(ValueError):
            MiningConfig()
        with pytest.raises(ValueError):
            MiningConfig(min_util=3, sigma=Fraction(1, 2))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MiningConfig(min_util=-1)
        with pytest.raises(ValueError):
            MiningConfig(sigma=Fraction(3, 2))
        with pytest.raises(ValueError):
            MiningConfig(min_util=3, max_len=0)

    def test_resolve_sigma_is_exact(self, ref_db):
        # [DERIVED] 104 * 1/4 = 26, computed without floating point.
        assert resolve_min_util(MiningConfig(sigma=Fraction(1, 4)), ref_db) == 26

    def test_resolve_absolute(self, ref_db):
        assert resolve_min_util(MiningConfig(min_util=7), ref_db) == 7


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(5, 4, 2, 6, 3, 3, seed=1)
        b = generate_synthetic(5, 4, 2, 6, 3, 3, seed=1)
        assert serialize_spmf(a.sequences) == serialize_spmf(b.sequences)
        assert a.utilities.values == b.utilities.values

    def test_respects_bounds(self):
        db = generate_synthetic(20, 4, 2, 6, 3, 5, seed=9)
        assert len(db.sequences) == 20
        for seq in db.sequences:
            assert 2 <= len(seq) <= 6
            assert all(1 <= e.item <= 4 for e in seq.elements)
            assert all(1 <= e.quantity <= 3 for e in seq.elements)
        assert all(1 <= v <= 5 for v in db.utilities.values.values())


class TestQSequenceDatabase:
    def test_unique_sids_enforced(self, ref_db):
        with pytest.raises(ValueError):
            type(ref_db)(ref_db.sequences + (ref_db.sequences[0],), ref_db.utilities)

    def test_len(self, ref_db):
        assert len(ref_db) == 6
