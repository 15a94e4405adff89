"""Shared memoized chain evaluation and inherited-chain arithmetic.

Utility is a global property of a pattern, so identical patterns reached from
different roots or position subsets are materialized once per run; the
utility-computation counter counts distinct materializations only. A
pattern's (utility, support) pair is summed from its rows once, too.

Inherited chains (a super-pattern's chain restricted to a subset of its
columns) carry each row's originating sequence id and matched positions.
Distinct embeddings of the super-pattern can collapse onto the same embedding
of the restricted pattern; summing such duplicate rows would overstate the
lower bound, so every restriction deduplicates on (sid, restricted positions).
Only then is the restricted sum a true lower bound on the pattern's utility.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from .occurrence import BitIndex, SUChain, UtilityCounter, enumerate_embeddings
from .seqdb import Pattern, QSequenceDatabase

# (sid, matched positions, per-position utilities)
TaggedRow = tuple[int, tuple[int, ...], tuple]
TaggedRows = tuple[TaggedRow, ...]


def _columns(cols: Sequence[int]):
    """A C-level callable mapping a row's positions or utilities to the tuple
    of the given (non-negative) columns."""
    if len(cols) > 1:
        return itemgetter(*cols)
    # ``itemgetter(c)`` returns the bare entry and ``itemgetter()`` is an
    # error; a slice gives the 1- or 0-tuple.
    return itemgetter(slice(cols[0], cols[0] + 1) if cols else slice(0))


def restrict_rows(rows: TaggedRows, keep: Sequence[int]) -> TaggedRows:
    """Keep only the given columns, dropping rows that collapse onto an
    already-seen (sid, positions) embedding."""
    take = _columns(keep)
    if len(rows) == 1:
        # Most calls carry one row, and one row cannot collapse.
        ((sid, pos, util),) = rows
        return ((sid, take(pos), take(util)),)
    out: list[TaggedRow] = []
    seen: set[tuple] = set()
    for sid, pos, util in rows:
        key = (sid, take(pos))
        if key not in seen:
            seen.add(key)
            out.append((sid, key[1], take(util)))
    return tuple(out)


def column_bound(rows: TaggedRows, cols: Sequence[int]):
    """Lower bound (LBS) of the pattern formed by the given columns: entry sum
    over the distinct restricted embeddings."""
    take = _columns(cols)
    if len(rows) == 1:
        return sum(take(rows[0][2]))
    total = 0
    seen: set[tuple] = set()
    for sid, pos, util in rows:
        key = (sid, take(pos))
        if key not in seen:
            seen.add(key)
            total += sum(take(util))
    return total


def prefix_bounds(rows: TaggedRows, p: int, width: int) -> list:
    """``column_bound(rows, [0, .., p - 1, i])`` for every ``i`` in
    ``p .. width - 1``, in that order, from one pass over the rows.

    Each row's prefix key and prefix sum are taken once; each ``i`` keeps its
    own set of the distinct (sid, prefix positions, position ``i``) it has
    summed, so every bound is deduplicated exactly as ``column_bound``'s.
    """
    if len(rows) == 1:
        # Most calls carry one row, and one row cannot collapse.
        util = rows[0][2]
        head_sum = sum(util[:p])
        return [head_sum + u for u in util[p:width]]
    totals = [0] * (width - p)
    seen: list[set] = [set() for _ in totals]
    for sid, pos, util in rows:
        head = (sid, pos[:p])
        head_sum = sum(util[:p])
        for k, (x, u) in enumerate(zip(pos[p:width], util[p:width])):
            key = (head, x)
            if key not in seen[k]:
                seen[k].add(key)
                totals[k] += head_sum + u
    return totals


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
        self._totals: dict[Pattern, tuple] = {}
        # The per-position utilities of each sequence a build has matched, by
        # index into ``db.sequences``.
        self._utils: dict[int, tuple] = {}

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
        totals = self._totals.get(pattern)
        if totals is None:
            rows = self.tagged(pattern)
            totals = self._totals[pattern] = (rows_total(rows), len(rows))
        return totals

    def _build(self, pattern: Pattern) -> TaggedRows:
        """Rows grouped by sequence order, then embedding order. Counts as one
        utility computation."""
        rows: list[TaggedRow] = []
        sequences = self.db.sequences
        for k in self._holders(pattern):
            seq = sequences[k]
            embeddings = enumerate_embeddings(
                pattern, seq, self.index, self.max_embeddings
            )
            if not embeddings:
                continue
            utils = self._utils.get(k)
            if utils is None:
                utils = self._utils[k] = self.db.sequence_utilities(seq)
            for pos in embeddings:
                rows.append((seq.sid, pos, tuple(map(utils.__getitem__, pos))))
        if self.counter is not None:
            self.counter.increment()
        return tuple(rows)

    def _holders(self, pattern: Pattern):
        """Ascending indices into ``db.sequences`` of the sequences that hold
        at least as many copies of each item as the pattern, or of all
        sequences when the store has no index. Such a sequence is at least as
        long as the pattern."""
        if self.index is None:
            return range(len(self.db.sequences))
        masks = self.index.masks
        mask = (1 << len(self.db.sequences)) - 1
        items = set(pattern)
        # Counting copies pays only when the pattern repeats an item.
        repeats = len(items) < len(pattern)
        for item in items:
            at_least = masks.get(item, ())
            copies = pattern.count(item) if repeats else 1
            mask &= at_least[copies - 1] if copies <= len(at_least) else 0
        # Bit k of the mask is character k of the reversed binary string.
        bits = bin(mask)[:1:-1]
        holders = []
        k = bits.find("1")
        while k >= 0:
            holders.append(k)
            k = bits.find("1", k + 1)
        return holders


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
