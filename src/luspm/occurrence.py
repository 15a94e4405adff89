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
class Embedding:
    """One occurrence of a pattern: strictly increasing positions, one per
    pattern element."""

    sid: int
    positions: tuple[int, ...]


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
    """Per-sequence position lists and per-item sequence masks.

    ``positions[sid][item]`` holds, in increasing order, the positions of that
    sequence that hold the item. Bit ``k`` of ``masks[item]`` is set when
    ``db.sequences[k]`` holds the item (a vertical bitmap, as in SPAM), so
    the sequences that hold every item of a pattern are the AND of its
    items' masks. The masks are indexed by position in ``db.sequences``, so
    an index is valid only for the database it was built from. Purely an
    accelerator: every result must be identical with ``index=None``.
    """

    positions: dict[int, dict[int, tuple[int, ...]]]
    masks: dict[int, int]

    def item_positions(self, seq: QSequence, item: int) -> tuple[int, ...]:
        return self.positions[seq.sid].get(item, ())


def build_bit_index(db: QSequenceDatabase) -> BitIndex:
    positions: dict[int, dict[int, tuple[int, ...]]] = {}
    masks: dict[int, int] = {}
    for k, seq in enumerate(db.sequences):
        p: dict[int, list[int]] = {}
        for j, e in enumerate(seq.elements):
            p.setdefault(e.item, []).append(j)
        positions[seq.sid] = {item: tuple(v) for item, v in p.items()}
        for item in p:
            masks[item] = masks.get(item, 0) | 1 << k
    return BitIndex(positions, masks)


def is_subsequence(shorter: Pattern, longer: Pattern) -> bool:
    """Greedy left-to-right containment check (order-preserving)."""
    it = iter(longer)
    return all(item in it for item in shorter)


def _positions_of(seq: QSequence, item: int, index: BitIndex | None) -> tuple[int, ...]:
    if index is not None:
        return index.item_positions(seq, item)
    return tuple(j for j, e in enumerate(seq.elements) if e.item == item)


def enumerate_embeddings(
    pattern: Pattern,
    seq: QSequence,
    index: BitIndex | None = None,
    max_embeddings: int | None = None,
) -> list[Embedding]:
    """All strictly increasing position assignments matching the pattern, in
    lexicographic position order.

    Built one pattern position at a time, without recursion, so the pattern
    length is not limited by the interpreter's recursion limit.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    pos_lists = [_positions_of(seq, item, index) for item in pattern]
    # Keep only positions that the rest of the pattern can still follow, so
    # every partial embedding below completes and no level outnumbers the
    # result: a cap breach shows at the first level that exceeds the cap.
    limit = len(seq)
    for depth in range(len(pattern) - 1, -1, -1):
        pl = pos_lists[depth][: bisect_left(pos_lists[depth], limit)]
        if not pl:
            return []
        pos_lists[depth] = pl
        limit = pl[-1]
    level = [()]
    for pl in pos_lists:
        # Position lists are sorted: an extension starts past the last match.
        level = [h + (pos,) for h in level for pos in pl[bisect_right(pl, h[-1]) if h else 0 :]]
        if max_embeddings is not None and len(level) > max_embeddings:
            raise EmbeddingCapExceeded(
                f"pattern {pattern} exceeds {max_embeddings} embeddings in sid {seq.sid}"
            )
    return [Embedding(seq.sid, positions) for positions in level]


def compute_utility(chain: SUChain, prefix_len: int | None = None):
    """Sum of all chain entries, or of the first ``prefix_len`` entries of each
    row. On a pattern's own chain this is its true utility; on a chain
    inherited from a super-sequence it is the lower bound LBS."""
    if prefix_len is None:
        return sum(sum(row) for row in chain.rows)
    if prefix_len > chain.length:
        raise ValueError("prefix_len exceeds chain width")
    return sum(sum(row[:prefix_len]) for row in chain.rows)
