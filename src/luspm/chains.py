"""Shared memoized chain evaluation and inherited-chain arithmetic.

Utility is a global property of a pattern, so identical patterns reached from
different roots or position subsets are materialized once per run; the
utility-computation counter counts distinct materializations only.

Inherited chains (a super-pattern's chain restricted to a subset of its
columns) carry each row's originating sequence id and matched positions.
Distinct embeddings of the super-pattern can collapse onto the same embedding
of the restricted pattern; summing such duplicate rows would overstate the
lower bound, so every restriction deduplicates on (sid, restricted positions).
Only then is the restricted sum a true lower bound on the pattern's utility.
"""

from __future__ import annotations

from typing import Sequence

from .occurrence import (
    BitIndex,
    SUChain,
    UtilityCounter,
    enumerate_embeddings,
    is_subsequence,
)
from .seqdb import Pattern, QSequenceDatabase

# (sid, matched positions, per-position utilities)
TaggedRow = tuple[int, tuple[int, ...], tuple]
TaggedRows = tuple[TaggedRow, ...]


def restrict_rows(rows: TaggedRows, keep: Sequence[int]) -> TaggedRows:
    """Keep only the given columns, dropping rows that collapse onto an
    already-seen (sid, positions) embedding."""
    out: list[TaggedRow] = []
    seen: set[tuple] = set()
    for sid, pos, util in rows:
        p = tuple(pos[c] for c in keep)
        key = (sid, p)
        if key not in seen:
            seen.add(key)
            out.append((sid, p, tuple(util[c] for c in keep)))
    return tuple(out)


def column_bound(rows: TaggedRows, cols: Sequence[int]):
    """Lower bound (LBS) of the pattern formed by the given columns: entry sum
    over the distinct restricted embeddings."""
    total = 0
    seen: set[tuple] = set()
    for sid, pos, util in rows:
        key = (sid, tuple(pos[c] for c in cols))
        if key not in seen:
            seen.add(key)
            total += sum(util[c] for c in cols)
    return total


def rows_total(rows: TaggedRows):
    return sum(sum(util) for _, _, util in rows)


class ChainStore:
    """Pattern-keyed cache of true sequence-utility chains.

    ``_build`` is the package's one scan of the database for a pattern's
    embeddings; every chain, utility and support is read from its rows.
    """

    def __init__(
        self,
        db: QSequenceDatabase,
        index: BitIndex | None,
        counter: UtilityCounter | None = None,
        max_embeddings: int | None = None,
    ):
        self.db = db
        self.index = index
        self.counter = counter
        self.max_embeddings = max_embeddings
        self._memo: dict[Pattern, TaggedRows] = {}

    def tagged(self, pattern: Pattern) -> TaggedRows:
        """The pattern's own chain rows, with embedding provenance."""
        cached = self._memo.get(pattern)
        if cached is None:
            cached = self._build(pattern)
            self._memo[pattern] = cached
        return cached

    def chain(self, pattern: Pattern) -> SUChain:
        rows = self.tagged(pattern)
        return SUChain(len(pattern), tuple(util for _, _, util in rows))

    def evaluate(self, pattern: Pattern):
        """(true utility, support) of a pattern."""
        rows = self.tagged(pattern)
        return rows_total(rows), len(rows)

    def _build(self, pattern: Pattern) -> TaggedRows:
        """Rows grouped by sequence order, then embedding order. Counts as one
        utility computation."""
        rows: list[TaggedRow] = []
        for seq in self.db.sequences:
            if self.index is not None and not self.index.contains_all(seq, pattern):
                continue
            if not is_subsequence(pattern, seq.items):
                continue
            utils = self.db.sequence_utilities(seq)
            for emb in enumerate_embeddings(
                pattern, seq, self.index, self.max_embeddings
            ):
                rows.append(
                    (seq.sid, emb.positions, tuple(utils[j] for j in emb.positions))
                )
        if self.counter is not None:
            self.counter.increment()
        return tuple(rows)


def get_utility_chain(
    pattern: Pattern,
    db: QSequenceDatabase,
    index: BitIndex | None = None,
    counter: UtilityCounter | None = None,
    max_embeddings: int | None = None,
) -> SUChain:
    """The pattern's sequence-utility chain over the whole database."""
    return ChainStore(db, index, counter, max_embeddings).chain(pattern)


def support(
    pattern: Pattern,
    db: QSequenceDatabase,
    index: BitIndex | None = None,
) -> int:
    """Total number of embeddings of the pattern across the database."""
    return len(ChainStore(db, index).tagged(pattern))
