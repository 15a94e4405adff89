"""Shared memoized lazy chains and inherited-chain arithmetic.

Utility is a global property of a pattern, so identical patterns reached from
different roots or position subsets share one chain per run; the
utility-computation counter counts distinct chains, once each, when the chain
is created, however far it is later pulled.

A chain is lazy: it holds the rows pulled so far, their total, and a source
of further rows. A pattern's own chain pulls from the database scan, one
holder sequence at a time (every embedding the sequence has); a restriction
pulls from its parent chain, one parent sequence at a time, pulling the
parent further when it runs out. So every chain's rows are whole sequences'
rows, grouped by sequence, in the order a full build gives them.

Every decision a miner takes on a chain compares a deduplicated sum with the
threshold: the chain total, a restricted total, a frozen-prefix bound. Such a
sum only grows as rows are added, because utilities are positive and a
pulled row is never taken back. A query therefore pulls until its sum exceeds
the threshold or the source runs out, and reads the same answer the full
chain gives: exceeding on a prefix of the rows means exceeding on all of
them, and a source that ran out leaves the full sum. The answers do not
depend on how far earlier queries pulled, so the decisions, the evaluations
and their order are those of fully built chains. Nothing is frozen: a
restriction made after its parent exceeded still pulls the parent to its end
if it needs to.

Inherited chains (a super-pattern's chain restricted to a subset of its
columns) carry each row's originating sequence id and matched positions.
Distinct embeddings of the super-pattern can collapse onto the same embedding
of the restricted pattern; summing such duplicate rows would overstate the
lower bound, so every restriction deduplicates on (sid, restricted positions).
Only then is the restricted sum a true lower bound on the pattern's utility.
Rows of different sequences never collide, so a lazy restriction deduplicates
within each sequence's rows, and a sequence's lone row needs no check.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterator, Sequence

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


def rows_total(rows: TaggedRows):
    return sum(sum(util) for _, _, util in rows)


class LazyChain:
    """A chain's rows pulled so far, their ``total``, and the source of the
    rest.

    ``rows`` is a list while the source lasts and becomes a tuple once it
    runs out. The source appends one sequence's rows per step and yields
    their sum.
    """

    __slots__ = ("rows", "total", "_source")

    def __init__(self, rows: list, source: Iterator):
        self.rows = rows
        self.total = 0
        self._source: Iterator | None = source

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

    def exceeds(self, threshold) -> bool:
        """Whether the chain total exceeds ``threshold``: the pattern's
        utility on its own chain, the lower bound on a restriction."""
        while self.total <= threshold:
            if not self._pull():
                return False
        return True

    def marked(self, p: int, width: int, threshold) -> list[int]:
        """The columns ``i`` in ``p .. width - 1`` whose frozen-prefix bound,
        the deduplicated sum over columns ``0 .. p - 1`` and ``i``, exceeds
        ``threshold``, ascending.

        Rows are read until every column exceeds or the source runs out; a
        column stops being summed once it exceeds. Each sequence's rows are
        deduplicated on their own, and a lone row skips the check.
        """
        bounds = [0] * width
        live = list(range(p, width))
        k = 0
        while live and (k < len(self.rows) or self._pull()):
            rows = self.rows
            sid, pos, util = rows[k]
            k += 1
            n = len(rows)
            if k == n or rows[k][0] != sid:
                head = sum(util[:p])
                for i in live:
                    bounds[i] += head + util[i]
            else:
                seen: set[tuple] = set()
                k -= 1
                while k < n and rows[k][0] == sid:
                    _, pos, util = rows[k]
                    k += 1
                    head_pos = pos[:p]
                    head = sum(util[:p])
                    for i in live:
                        key = (head_pos, i, pos[i])
                        if key not in seen:
                            seen.add(key)
                            bounds[i] += head + util[i]
            live = [i for i in live if bounds[i] <= threshold]
        return [i for i in range(p, width) if bounds[i] > threshold]

    def restrict(self, keep: Sequence[int]) -> LazyChain:
        """The chain of the pattern formed by the ``keep`` columns, pulled
        lazily from this one."""
        rows: list[TaggedRow] = []
        return LazyChain(rows, self._restricted(_columns(keep), rows))

    def _restricted(self, take, out: list) -> Iterator:
        """Append to ``out`` the restriction of each sequence's rows of this
        chain, pulling them as needed, and yield each one's sum."""
        k = 0
        while k < len(self.rows) or self._pull():
            rows = self.rows
            sid, pos, util = rows[k]
            k += 1
            key = take(pos)
            util = take(util)
            out.append((sid, key, util))
            total = sum(util)
            n = len(rows)
            if k < n and rows[k][0] == sid:
                seen = {key}
                while k < n and rows[k][0] == sid:
                    _, pos, util = rows[k]
                    k += 1
                    key = take(pos)
                    if key not in seen:
                        seen.add(key)
                        util = take(util)
                        out.append((sid, key, util))
                        total += sum(util)
            yield total


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


class ChainStore:
    """Pattern-keyed cache of lazy true sequence-utility chains.

    ``_scan`` is the package's one scan of the database for a pattern's
    embeddings; every chain, utility and support is read from its rows.
    ``rows_pulled`` counts the rows the scans have produced.

    With a ``threshold``, ``evaluate`` answers ``None`` for a pattern whose
    utility exceeds it, pulling only the rows that show it. A
    ``max_embeddings`` cap applies to each sequence's embeddings; a capped
    store pulls each chain in full when it creates it, so a breach raises
    there, before the chain is kept or counted.
    """

    def __init__(
        self,
        db: QSequenceDatabase,
        index: BitIndex | None,
        counter: UtilityCounter | None = None,
        max_embeddings: int | None = None,
        threshold=None,
    ):
        self.db = db
        self.index = index
        self.counter = counter
        self.max_embeddings = max_embeddings
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
            chain = LazyChain(rows, self._scan(pattern, rows))
            if self.max_embeddings is not None:
                chain.full()
            self._memo[pattern] = chain
            if self.counter is not None:
                self.counter.increment()
        return chain

    def rows(self, pattern: Pattern) -> TaggedRows:
        """The pattern's own chain rows, pulled in full."""
        return self.tagged(pattern).full()

    def chain(self, pattern: Pattern) -> SUChain:
        rows = self.rows(pattern)
        return SUChain(len(pattern), tuple(util for _, _, util in rows))

    def evaluate(self, pattern: Pattern):
        """(true utility, support) of a pattern, or ``None`` if the store has
        a threshold and the utility exceeds it."""
        chain = self.tagged(pattern)
        if self.threshold is not None and chain.exceeds(self.threshold):
            return None
        rows = chain.full()
        return chain.total, len(rows)

    def _scan(self, pattern: Pattern, out: list) -> Iterator:
        """Append to ``out`` the rows of each holder sequence that contains
        the pattern, grouped by sequence order, then embedding order, and
        yield each sequence's sum."""
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
            self.rows_pulled += len(embeddings)
            total = _append_rows(out, seq.sid, embeddings, utils)
            # A suspended scan keeps its locals alive; dropping the list of
            # embeddings leaves a partly pulled chain holding only its rows.
            del embeddings
            yield total

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
    return len(ChainStore(db, index).rows(pattern))
