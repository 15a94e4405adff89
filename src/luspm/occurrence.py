"""Embedding enumeration, sequence-utility chains and utility computation.

Every miner funnels through this module: a pattern's utility is the sum, over
all of its embeddings in the database, of quantity times external utility at
each matched position. The per-pattern rows of those position utilities form
the sequence-utility chain, which ``chains.ChainStore`` builds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmbeddingCapExceeded
from .seqdb import Pattern, QSequence, QSequenceDatabase


@dataclass(frozen=True)
class SUChain:
    """Per-embedding utility rows for one pattern across the database.

    Row p, entry q is quantity times external utility at the q-th matched
    position of embedding p. The number of rows equals the pattern's support.
    """

    length: int
    rows: tuple[tuple, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.length:
                raise ValueError("chain row width must equal pattern length")

    @property
    def support(self) -> int:
        return len(self.rows)

    def column_sum(self, q: int) -> int | Fraction:
        return sum(row[q] for row in self.rows)


class UtilityCounter:
    """Counts full-chain constructions during a mining run."""

    def __init__(self):
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def increment(self, n: int = 1) -> None:
        self._count += n


@dataclass(frozen=True)
class BitIndex:
    """Per-sequence items and position lists, and per-item sequence masks by
    copy count.

    ``items[sid]`` is that sequence's items, and ``positions[sid][item]``
    holds, in increasing order, the positions of that sequence that hold the
    item. Bit ``k`` of ``masks[item][c - 1]`` is set when
    ``db.sequences[k]`` holds ``c`` or more copies of the item (a vertical
    bitmap, as in SPAM), so the sequences that can hold a pattern are the
    AND, over its items, of the mask for the number of copies the pattern
    has. The masks are indexed by position in ``db.sequences``, so an index
    is valid only for the database it was built from. Purely an accelerator:
    every result must be identical with ``index=None``.
    """

    positions: dict[int, dict[int, tuple[int, ...]]]
    masks: dict[int, tuple[int, ...]]
    items: dict[int, Pattern]


def _item_positions(items: Pattern) -> dict[int, tuple[int, ...]]:
    where: dict[int, list[int]] = {}
    for j, item in enumerate(items):
        where.setdefault(item, []).append(j)
    return {item: tuple(v) for item, v in where.items()}


def build_bit_index(db: QSequenceDatabase) -> BitIndex:
    positions: dict[int, dict[int, tuple[int, ...]]] = {}
    items: dict[int, Pattern] = {}
    # item -> copy count -> mask of the sequences holding exactly that many
    exact: dict[int, dict[int, int]] = {}
    for k, seq in enumerate(db.sequences):
        seq_items = items[seq.sid] = seq.items
        where = positions[seq.sid] = _item_positions(seq_items)
        bit = 1 << k
        for item, pl in where.items():
            by_count = exact.setdefault(item, {})
            copies = len(pl)
            by_count[copies] = by_count.get(copies, 0) | bit
    masks: dict[int, tuple[int, ...]] = {}
    for item, by_count in exact.items():
        # A count no sequence holds shares the next count's mask object, so
        # a long run of copies in one sequence costs a tuple slot per copy,
        # not a mask per copy.
        at_least = [0] * max(by_count)
        mask = 0
        for c in range(len(at_least), 0, -1):
            if c in by_count:
                mask |= by_count[c]
            at_least[c - 1] = mask
        masks[item] = tuple(at_least)
    return BitIndex(positions, masks, items)


def copy_holders(pattern: Pattern, masks, n: int) -> list[int]:
    """Ascending indices ``k < n`` of the patterns holding at least as many
    copies of each item as ``pattern``, read from copy-count masks: bit ``k``
    of ``masks[item][c - 1]`` is set when pattern ``k`` holds ``c`` or more
    copies of the item, as in ``BitIndex.masks``. Such a pattern is at least
    as long as ``pattern``."""
    mask = (1 << n) - 1
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


def is_subsequence(shorter: Pattern, longer: Pattern) -> bool:
    """Greedy left-to-right containment check (order-preserving)."""
    it = iter(longer)
    return all(item in it for item in shorter)


def greedy_matches(
    pattern: Pattern, seq: QSequence, index: BitIndex | None = None
) -> tuple[list[int], list[int], dict[int, tuple[int, ...]]] | None:
    """The leftmost and the rightmost greedy match of the pattern in the
    sequence, each the list of its matched positions, and the sequence's
    positions per item; ``None`` when the sequence does not hold the
    pattern.

    The leftmost match is found by C-level ``tuple.index`` calls, and without
    one the sequence does not hold the pattern; the rightmost by bisecting
    the position lists from the end. Every embedding's ``d``-th position lies
    between the two matches' ``d``-th positions, so when they are equal the
    embedding is unique.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    items = index.items[seq.sid] if index is not None else seq.items
    left = []
    j = -1
    find = items.index
    try:
        for item in pattern:
            j = find(item, j + 1)
            left.append(j)
    except ValueError:
        return None
    where = index.positions[seq.sid] if index is not None else _item_positions(items)
    right = []
    j = len(items)
    for item in reversed(pattern):
        pl = where[item]
        j = pl[bisect_left(pl, j) - 1]
        right.append(j)
    right.reverse()
    return left, right, where


def enumerate_embeddings(
    pattern: Pattern,
    seq: QSequence,
    index: BitIndex | None = None,
    max_embeddings: int | None = None,
) -> list[tuple[int, ...]]:
    """All embeddings of the pattern in the sequence, in lexicographic order:
    each is the tuple of strictly increasing positions matched, one per
    pattern element. Empty when the sequence does not hold the pattern.

    A lone embedding is emitted from ``greedy_matches`` directly. Otherwise
    the embeddings are built one pattern position at a time, without
    recursion, from the positions between the two greedy matches.
    """
    matches = greedy_matches(pattern, seq, index)
    if matches is None:
        return []
    left, right, where = matches
    if left == right:
        embeddings = [tuple(left)]
    else:
        # Each position between the two matches is followed by the rightmost
        # match's next one, so every partial embedding below completes and
        # no level outnumbers the result: a cap breach shows at the first
        # level that exceeds the cap.
        embeddings = [()]
        for item, lo, hi in zip(pattern, left, right):
            pl = where[item]
            pl = pl[bisect_left(pl, lo) : bisect_right(pl, hi)]
            # An extension starts past the last match.
            embeddings = [
                h + (pos,) for h in embeddings for pos in pl[bisect_right(pl, h[-1]) if h else 0 :]
            ]
            if max_embeddings is not None and len(embeddings) > max_embeddings:
                break
    if max_embeddings is not None and len(embeddings) > max_embeddings:
        raise EmbeddingCapExceeded(
            f"pattern {pattern} exceeds {max_embeddings} embeddings in sid {seq.sid}"
        )
    return embeddings


def compute_utility(chain: SUChain, prefix_len: int | None = None):
    """Sum of all chain entries, or of the first ``prefix_len`` entries of each
    row. On a pattern's own chain this is its true utility; on a chain
    inherited from a super-sequence it is the lower bound LBS."""
    if prefix_len is None:
        return sum(sum(row) for row in chain.rows)
    if prefix_len > chain.length:
        raise ValueError("prefix_len exceeds chain width")
    return sum(sum(row[:prefix_len]) for row in chain.rows)
