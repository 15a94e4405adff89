"""Shared memoized lazy chains, row-free evaluation and inherited-chain
arithmetic.

Utility is a global property of a pattern, so identical patterns reached from
different roots or position subsets share one chain per run; the
utility-computation counter counts distinct chains, once each, when the chain
is created, however far it is later pulled.

A chain is lazy: it holds the rows pulled so far, their total, and a source
of further rows. A pattern's own chain pulls from the database scan, one
holder sequence at a time (every embedding the sequence has). So its rows
are whole sequences' rows, grouped by sequence, in the order a full build
gives them.

Rows are read only for the questions that need them: whether a chain's rows
projected onto a subset of its columns sum above the threshold or keep
exactly one distinct row, and full rows. The frozen-prefix marking asks the
first of these once per column, on the frozen prefix's columns and that
one. A pattern's exact utility
and support (``ChainStore.evaluate``) need no rows: they are summed over the
same holder sequences by an embedding-count DP, which stops once the utility
exceeds the threshold. Its column sums
(``ChainStore.column_sums``), which root construction prunes by, come from
the same DP run forward and backward. A chain already
drained, or whose pulled rows already exceed the threshold, answers from its
rows instead.

Every decision a miner takes on a chain compares a deduplicated sum with the
threshold: a projected total or a frozen-prefix bound. Such a sum only
grows as rows are added, because utilities are positive and a pulled row is
never taken back. A query therefore pulls until its sum exceeds
the threshold or the source runs out, and reads the same answer the full
chain gives: exceeding on a prefix of the rows means exceeding on all of
them, and a source that ran out leaves the full sum. The answers do not
depend on how far earlier queries pulled, so the decisions, the evaluations
and their order are those of fully built chains. Nothing is frozen: a
question asked after an earlier one exceeded still pulls the chain to its
end if it needs to.

A sub-pattern inherits a super-pattern's chain as a column view: the chain
and the columns the sub-pattern keeps. Rows carry each embedding's sequence
id and matched positions. Distinct embeddings of the super-pattern can
collapse onto one embedding of the sub-pattern; summing such duplicates
would overstate the lower bound, so every question deduplicates the
projected rows on (sid, projected positions). A row's utilities depend only
on its sid and positions, so a view of a view is the view on the composed
columns, with the rows nested ``restrict_rows`` calls give. Rows of
different sequences never collide, so each sequence's rows are deduplicated
on their own, and a sequence's lone row needs no check.
"""

from __future__ import annotations

from itertools import repeat
from math import inf
from operator import itemgetter
from typing import Iterator, Sequence

from .occurrence import (
    BitIndex,
    SUChain,
    UtilityCounter,
    copy_holders,
    enumerate_embeddings,
    greedy_matches,
)
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
    total = 0
    seen: set[tuple] = set()
    for sid, pos, util in rows:
        key = (sid, take(pos))
        if key not in seen:
            seen.add(key)
            total += sum(take(util))
    return total


def rows_total(rows: TaggedRows):
    return sum(sum(util) for _, _, util in rows)


class LazyChain:
    """A chain's rows pulled so far, their ``total``, and the source of the
    rest.

    ``rows`` is a list while the source lasts and becomes a tuple once it
    runs out. The source appends one sequence's rows per step and yields
    their sum. ``marked`` is one ``exceeds_on`` per column. A drained chain
    (no source) of one row answers both from that row's utility tuple: one
    row cannot collapse.
    """

    __slots__ = ("rows", "total", "_source")

    def __init__(self, rows: list | TaggedRows, source: Iterator | None, total=0):
        self.rows = rows
        self.total = total
        self._source = source

    def _pull(self) -> bool:
        """Pull the next sequence's rows; false once the source has none."""
        if self._source is not None:
            total = next(self._source, None)
            if total is not None:
                self.total += total
                return True
            self._source = None
            self.rows = tuple(self.rows)
        return False

    def full(self) -> TaggedRows:
        """Every row, pulling the rest of the source."""
        if self._source is not None:
            self.total += sum(self._source)
            self._source = None
            self.rows = tuple(self.rows)
        return self.rows

    def exceeds_on(self, cols: Sequence[int], threshold) -> bool:
        """Whether this chain's rows projected onto ``cols``, deduplicated on
        (sid, projected positions), sum above ``threshold``: the total of
        ``restrict_rows(rows, cols)``, or ``column_bound(rows, cols)``.

        Rows are read in order, pulling further holders only while the sum
        is within the threshold. A sequence's first row cannot collide with
        an earlier sequence's, so each sequence's rows are deduplicated on
        their own. A drained chain of one row answers from its utility tuple.
        """
        if self._source is None and len(self.rows) == 1:
            return sum(map(self.rows[0][2].__getitem__, cols)) > threshold
        take = _columns(cols)
        total = 0
        last = seen = None
        k = 0
        while k < len(self.rows) or self._pull():
            sid, pos, util = self.rows[k]
            k += 1
            key = take(pos)
            if sid != last:
                last = sid
                seen = {key}
            elif key in seen:
                continue
            else:
                seen.add(key)
            total += sum(take(util))
            if total > threshold:
                return True
        return total > threshold

    def lone_row(self, cols: Sequence[int]) -> tuple | None:
        """The utilities of the one distinct row of this chain projected onto
        ``cols``, or ``None`` when the projection has two or more rows (or
        none).

        A second distinct row ends the scan: a row of another sequence, or
        one whose projected positions differ from the first row's. Only a
        one-row projection pulls the chain to its end. The identity
        projection gives the row's own utility tuple.
        """
        if not self.rows and not self._pull():
            return None
        sid, pos, util = self.rows[0]
        if len(cols) == len(pos):
            # The identity projection: the chain's rows are already distinct.
            return None if len(self.rows) > 1 or self._pull() else util
        take = _columns(cols)
        key = take(pos)
        k = 1
        while k < len(self.rows) or self._pull():
            other, pos, _ = self.rows[k]
            if other != sid or take(pos) != key:
                return None
            k += 1
        return take(util)

    def view(self, cols: tuple) -> tuple[LazyChain, tuple]:
        """The view ``(self, cols)``, or, once this chain is drained and its
        rows projected onto ``cols`` are one distinct row, a drained chain of
        that row alone with identity columns, which the view's questions and
        its sub-views' read as one utility tuple. A chain still pulling is
        kept, as ``lone_row`` would pull it further."""
        if self._source is not None or len(self.rows) == 1:
            return self, cols
        util = self.lone_row(cols)
        if util is None:
            return self, cols
        sid, pos, _ = self.rows[0]
        row = (sid, _columns(cols)(pos), util)
        return LazyChain((row,), None, sum(util)), tuple(range(len(cols)))

    def marked(self, cols: Sequence[int], p: int, threshold) -> list[int]:
        """The indices ``i`` in ``p .. len(cols) - 1`` whose frozen-prefix
        bound, the deduplicated sum of this chain's rows projected onto
        ``cols[:p]`` and ``cols[i]``, exceeds ``threshold``, ascending.

        Each bound is one ``exceeds_on`` on those columns, which pulls only
        until it is decided; pulled rows stay, so the marking pulls to the
        holder after which every column exceeds, or to the end.
        """
        width = len(cols)
        if self._source is None and len(self.rows) == 1:
            util = self.rows[0][2]
            if width < len(util):
                util = _columns(cols)(util)
            head = sum(util[:p])
            return [i for i in range(p, width) if head + util[i] > threshold]
        head = tuple(cols[:p])
        exceeds = self.exceeds_on
        return [i for i in range(p, width) if exceeds(head + (cols[i],), threshold)]


def _append_rows(out: list, sid: int, embeddings: list, utils: tuple):
    """Append the rows of one sequence's embeddings, given the sequence's
    per-position utilities, and return their sum."""
    get = utils.__getitem__
    # Most holders have one embedding; many embeddings are projected and
    # summed by C-level iteration instead of one step per row.
    if len(embeddings) == 1:
        (pos,) = embeddings
        util = tuple(map(get, pos))
        out.append((sid, pos, util))
        return sum(util)
    utils_per_row = [tuple(map(get, pos)) for pos in embeddings]
    out += zip(repeat(sid), embeddings, utils_per_row)
    return sum(map(sum, utils_per_row))


def _depths(pattern: Pattern) -> dict[int, list[int]]:
    """The pattern positions holding each of its items, descending."""
    depths: dict[int, list[int]] = {}
    for d in range(len(pattern) - 1, -1, -1):
        depths.setdefault(pattern[d], []).append(d)
    return depths


def _embedding_totals(items, utils, left, right, depths, budget):
    """(utility, count) summed over every embedding of a pattern in one
    sequence, or ``None`` as soon as the utility exceeds ``budget``.

    ``left`` and ``right`` are the pattern's two greedy matches in the
    sequence and ``depths`` is ``_depths(pattern)``. One sweep from the first
    position of ``left`` to the last of ``right`` keeps, for each prefix
    length ``d``, the number ``cnt[d]`` of embeddings of the pattern's first
    ``d`` items among the positions swept so far and their utility sum
    ``ut[d]``. A position holding the pattern's ``d``-th item, with utility
    ``u``, extends each of them: ``cnt[d + 1] += cnt[d]`` and
    ``ut[d + 1] += ut[d] + cnt[d] * u``. Visiting its depths in descending
    order extends only embeddings that end before it. No embedding's
    ``d``-th position lies past ``right[d]``, so such a position is skipped
    at depth ``d``. ``ut`` only grows, so the sweep stops once the whole
    pattern's sum exceeds ``budget``.
    """
    m = len(left)
    cnt = [1] + [0] * m
    ut = [0] * (m + 1)
    for j in range(left[0], right[-1] + 1):
        ds = depths.get(items[j])
        if ds is None:
            continue
        u = utils[j]
        for d in ds:
            c = cnt[d]
            if c and j <= right[d]:
                cnt[d + 1] += c
                ut[d + 1] += ut[d] + c * u
        if ut[m] > budget:
            return None
    return ut[m], cnt[m]


def _column_totals(items, utils, left, right, depths, sums: list) -> None:
    """Add to ``sums[d]`` the utility at the ``d``-th position of every
    embedding of a pattern in one sequence, for every pattern position ``d``.

    The arguments are ``_embedding_totals``'s. Column ``d``'s sum is
    Σ_j [items[j] = P_d] · u_j · F_d(j) · B_d(j), where F_d(j) counts the
    embeddings of the pattern's first ``d`` items that end before ``j`` and
    B_d(j) those of its items after ``d`` that start after ``j``. The forward
    sweep of ``_embedding_totals`` gives F_d(j) as ``cnt[d]`` and keeps the
    ``(j, d)`` steps where it is non-zero. Only those steps lie on a whole
    embedding, so a backward sweep over them alone, in reverse, counts the
    suffix embeddings after each ``j`` (``after[d + 1]``) and adds each
    product.
    """
    m = len(left)
    cnt = [1] + [0] * m
    steps = []
    for j in range(left[0], right[-1] + 1):
        ds = depths.get(items[j])
        if ds is None:
            continue
        for d in ds:
            c = cnt[d]
            if c and j <= right[d]:
                cnt[d + 1] += c
                steps.append((j, d, c))
    after = [0] * m + [1]
    for j, d, c in reversed(steps):
        b = after[d + 1]
        if b:
            after[d] += b
            sums[d] += utils[j] * c * b


# ``_HolderScan.totals`` before the store has summed the pattern.
_UNSUMMED = object()


class _HolderScan:
    """The row source of a pattern's own chain.

    It holds the pattern's holder sequences (``ChainStore._holders``), taken
    once when the chain is created, and scans them in order from
    ``holders[start]``, one per pull: the next holder that holds the pattern
    appends all of its embeddings' rows to ``out``, and the pull gives their
    sum. ``totals`` keeps ``ChainStore.evaluate``'s row-free answer once it
    is made. The chain drops its scan when the scan runs out, and with it
    the holder list and the answer, which its rows then give.
    """

    __slots__ = ("store", "pattern", "holders", "start", "out", "totals")

    def __init__(self, store: ChainStore, pattern: Pattern, holders, out: list):
        self.store = store
        self.pattern = pattern
        self.holders = holders
        self.start = 0
        self.out = out
        self.totals = _UNSUMMED

    def __iter__(self):
        return self

    def __next__(self):
        store = self.store
        sequences = store.db.sequences
        holders = self.holders
        for i in range(self.start, len(holders)):
            seq = sequences[holders[i]]
            embeddings = enumerate_embeddings(self.pattern, seq, store.index)
            if embeddings:
                self.start = i + 1
                store.rows_pulled += len(embeddings)
                utils = store._sequence_utilities(holders[i])
                return _append_rows(self.out, seq.sid, embeddings, utils)
        self.start = len(holders)
        raise StopIteration


class ChainStore:
    """Pattern-keyed cache of lazy true sequence-utility chains.

    A pattern's own chain pulls its rows from a ``_HolderScan``, the
    package's one scan of the database for a pattern's embeddings; every row
    question (``LazyChain.exceeds_on``, ``lone_row``, ``view``, ``full`` and
    ``rows``, and ``marked``, one ``exceeds_on`` per column) is read from
    those rows. ``rows_pulled`` counts the rows the scans have produced.

    ``evaluate`` builds no rows for a chain it has not drained: it sums each
    holder sequence's embeddings by a count DP over the same holders, and
    answers ``None`` as soon as the utility exceeds ``threshold``, which
    bounds nothing by default. ``counter`` counts the chains created; a
    store given none keeps its own.
    """

    def __init__(
        self,
        db: QSequenceDatabase,
        index: BitIndex | None,
        counter: UtilityCounter | None = None,
        threshold=inf,
    ):
        self.db = db
        self.index = index
        self.counter = UtilityCounter() if counter is None else counter
        self.threshold = threshold
        self.rows_pulled = 0
        self._memo: dict[Pattern, LazyChain] = {}
        # The per-position utilities of each sequence a scan has matched, by
        # index into ``db.sequences``.
        self._utils: dict[int, tuple] = {}

    def tagged(self, pattern: Pattern) -> LazyChain:
        """The pattern's own lazy chain, with embedding provenance. Creating
        it counts as one utility computation."""
        chain = self._memo.get(pattern)
        if chain is None:
            rows: list[TaggedRow] = []
            scan = _HolderScan(self, pattern, self._holders(pattern), rows)
            chain = self._memo[pattern] = LazyChain(rows, scan)
            self.counter.increment()
        return chain

    def rows(self, pattern: Pattern) -> TaggedRows:
        """The pattern's own chain rows, pulled in full."""
        return self.tagged(pattern).full()

    def chain(self, pattern: Pattern) -> SUChain:
        rows = self.rows(pattern)
        return SUChain(len(pattern), tuple(util for _, _, util in rows))

    def evaluate(self, pattern: Pattern):
        """(true utility, support) of a pattern, or ``None`` if the utility
        exceeds the store's threshold.

        A drained chain answers from its rows, and so does one whose rows
        pulled so far exceed the threshold. Otherwise the answer is summed
        without rows (``_sum_embeddings``), once per chain.
        """
        chain = self.tagged(pattern)
        if chain.total > self.threshold:
            return None
        scan = chain._source
        if scan is None:
            return chain.total, len(chain.rows)
        if scan.totals is _UNSUMMED:
            scan.totals = self._sum_embeddings(chain, scan)
        return scan.totals

    def _sum_embeddings(self, chain: LazyChain, scan: _HolderScan):
        """(utility, support) over every embedding of a chain's pattern,
        without further rows; ``None`` as soon as the utility exceeds the
        store's threshold.

        The rows pulled so far are whole holders' rows, so the sum starts
        from their total and count and goes on from the scan's next holder.
        Holders there that do not hold the pattern are skipped by the scan
        as well, so a later pull does not test them again. A holder's
        leftmost greedy match is one of its embeddings, so that embedding's
        utility alone may show the threshold exceeded. When the rightmost
        match equals it, it is the holder's only embedding; any other holder
        is summed by ``_embedding_totals``.
        """
        threshold = self.threshold
        sequences = self.db.sequences
        pattern, holders = scan.pattern, scan.holders
        depths = None
        utility, support = chain.total, len(chain.rows)
        for i in range(scan.start, len(holders)):
            seq = sequences[holders[i]]
            matches = greedy_matches(pattern, seq, self.index)
            if matches is None:
                if i == scan.start:
                    scan.start += 1
                continue
            left, right, _ = matches
            utils = self._sequence_utilities(holders[i])
            first = sum(map(utils.__getitem__, left))
            if utility + first > threshold:
                return None
            if left == right:
                utility += first
                support += 1
                continue
            if depths is None:
                depths = _depths(pattern)
            totals = _embedding_totals(
                self._items(seq), utils, left, right, depths, threshold - utility
            )
            if totals is None:
                return None
            utility += totals[0]
            support += totals[1]
        return utility, support

    def column_sums(self, pattern: Pattern) -> list:
        """Each column's sum over the pattern's own chain, that is over
        every embedding of the pattern in the database, summed without rows.

        The pattern's chain is created, which counts as its utility
        computation, and its holder list is reused, but none of its rows is
        pulled. A holder whose two greedy matches are equal has one
        embedding, whose utilities are added as they are; any other holder
        is summed by ``_column_totals``.
        """
        scan = self.tagged(pattern)._source
        holders = self._holders(pattern) if scan is None else scan.holders
        sums = [0] * len(pattern)
        sequences = self.db.sequences
        depths = None
        for k in holders:
            seq = sequences[k]
            matches = greedy_matches(pattern, seq, self.index)
            if matches is None:
                continue
            left, right, _ = matches
            utils = self._sequence_utilities(k)
            if left == right:
                for d, j in enumerate(left):
                    sums[d] += utils[j]
                continue
            if depths is None:
                depths = _depths(pattern)
            _column_totals(self._items(seq), utils, left, right, depths, sums)
        return sums

    def _items(self, seq) -> Pattern:
        """The items of ``seq``, from the index when the store has one."""
        return seq.items if self.index is None else self.index.items[seq.sid]

    def _sequence_utilities(self, k: int) -> tuple:
        """The per-position utilities of ``db.sequences[k]``, computed once."""
        utils = self._utils.get(k)
        if utils is None:
            utils = self._utils[k] = self.db.sequence_utilities(self.db.sequences[k])
        return utils

    def _holders(self, pattern: Pattern):
        """Ascending indices into ``db.sequences`` of the sequences that hold
        at least as many copies of each item as the pattern, or of all
        sequences when the store has no index. Such a sequence is at least as
        long as the pattern."""
        if self.index is None:
            return range(len(self.db.sequences))
        return copy_holders(pattern, self.index.masks, len(self.db.sequences))


def get_utility_chain(
    pattern: Pattern,
    db: QSequenceDatabase,
    index: BitIndex | None = None,
    counter: UtilityCounter | None = None,
) -> SUChain:
    """The pattern's sequence-utility chain over the whole database."""
    return ChainStore(db, index, counter).chain(pattern)


def support(
    pattern: Pattern,
    db: QSequenceDatabase,
    index: BitIndex | None = None,
) -> int:
    """Total number of embeddings of the pattern across the database."""
    return len(ChainStore(db, index).rows(pattern))
