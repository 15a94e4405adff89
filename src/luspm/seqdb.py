"""Quantitative sequence data model, file formats and threshold resolution.

A database is an ordered list of quantitative sequences (each position is an
item with a positive integer quantity) plus a table of strictly positive
external utilities, one per item. Utilities are exact: integer values stay
``int``, anything else is a ``fractions.Fraction``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import ParseError, UtilityTableError

ItemId = int
Pattern = tuple[ItemId, ...]
Util = "int | Fraction"


def _normalize(value: Fraction) -> int | Fraction:
    return int(value) if value.denominator == 1 else value


@dataclass(frozen=True)
class QItem:
    item: ItemId
    quantity: int = 1

    def __post_init__(self):
        if self.quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {self.quantity}")


@dataclass(frozen=True)
class QSequence:
    sid: int
    elements: tuple[QItem, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a q-sequence must be non-empty")

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def items(self) -> Pattern:
        return tuple(e.item for e in self.elements)

    @property
    def quantities(self) -> tuple[int, ...]:
        return tuple(e.quantity for e in self.elements)


@dataclass(frozen=True)
class ExternalUtilityTable:
    """Mapping from item id to its strictly positive external utility."""

    values: dict[ItemId, int | Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for item, v in self.values.items():
            if v <= 0:
                raise ValueError(f"external utility of item {item} must be > 0")

    def value(self, item: ItemId) -> int | Fraction:
        try:
            return self.values[item]
        except KeyError:
            raise UtilityTableError(f"item {item} has no external utility") from None

    def __contains__(self, item: ItemId) -> bool:
        return item in self.values

    @staticmethod
    def uniform(items: Iterable[ItemId], value: int | Fraction = 1) -> "ExternalUtilityTable":
        return ExternalUtilityTable({i: value for i in items})


@dataclass(frozen=True)
class QSequenceDatabase:
    sequences: tuple[QSequence, ...]
    utilities: ExternalUtilityTable

    def __post_init__(self):
        if not self.sequences:
            raise ValueError("a database must contain at least one sequence")
        sids = [s.sid for s in self.sequences]
        if len(set(sids)) != len(sids):
            raise ValueError("sequence identifiers must be unique")

    def __len__(self) -> int:
        return len(self.sequences)

    def sequence_utilities(self, seq: QSequence) -> tuple:
        """Per-position utilities (quantity times external utility) of one sequence."""
        return tuple(e.quantity * self.utilities.value(e.item) for e in seq.elements)


@dataclass(frozen=True)
class MiningConfig:
    """Threshold (absolute ``min_util`` or fraction ``sigma``) plus length cap."""

    min_util: int | Fraction | None = None
    sigma: Fraction | float | None = None
    max_len: int | None = None

    def __post_init__(self):
        if (self.min_util is None) == (self.sigma is None):
            raise ValueError("exactly one of min_util and sigma must be given")
        if self.min_util is not None and self.min_util < 0:
            raise ValueError("min_util must be >= 0")
        if self.sigma is not None and not 0 < self.sigma < 1:
            raise ValueError("sigma must satisfy 0 < sigma < 1")
        if self.max_len is not None and self.max_len < 1:
            raise ValueError("max_len must be >= 1 when bounded")


def parse_spmf(text: str | bytes) -> tuple[QSequence, ...]:
    """Parse SPMF-style sequence lines into q-sequences (no utility table).

    ``-1`` itemset separators are dropped and the items flattened into one
    ordered list. A bare integer token carries quantity 1; ``item[q]`` sets an
    explicit quantity. Every sequence line must end with ``-2``.

    Elements are shared per token: the first occurrence of a token is checked
    and becomes a ``QItem``, and every later occurrence in the same call
    reuses that immutable object, so a database that repeats a few hundred
    distinct tokens holds a few hundred elements. A token that fails a check
    is never stored: it raises a ``ParseError`` naming its own line.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    parsed: dict[str, QItem] = {}
    cached = parsed.get
    sequences: list[QSequence] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if tokens[-1] != "-2":
            raise ParseError(line_no, "missing -2 terminator")
        # A QItem is always truthy, so ``or`` parses only uncached tokens.
        elements = [
            cached(tok) or _parse_token(tok, line_no, parsed)
            for tok in tokens[:-1]
            if tok != "-1"
        ]
        if not elements:
            raise ParseError(line_no, "empty sequence")
        sequences.append(QSequence(sid=len(sequences), elements=tuple(elements)))
    return tuple(sequences)


def _parse_token(tok: str, line_no: int, parsed: dict[str, QItem]) -> QItem:
    """Check the item token ``tok`` of line ``line_no`` and store its
    ``QItem`` in ``parsed``; raise ``ParseError`` if it is not valid."""
    if tok == "-2":
        raise ParseError(line_no, "-2 before end of line")
    item_s, _, rest = tok.partition("[")
    try:
        item = int(item_s)
        if rest:
            if not rest.endswith("]"):
                raise ValueError
            quantity = int(rest[:-1])
        else:
            quantity = 1
    except ValueError:
        raise ParseError(line_no, f"malformed token {tok!r}") from None
    if item < 0:
        raise ParseError(line_no, f"negative item id {item}")
    if quantity < 1:
        raise ParseError(line_no, f"quantity {quantity} < 1 for item {item}")
    element = parsed[tok] = QItem(item, quantity)
    return element


def serialize_spmf(sequences: Iterable[QSequence]) -> str:
    lines = []
    for seq in sequences:
        toks = []
        for e in seq.elements:
            toks.append(str(e.item) if e.quantity == 1 else f"{e.item}[{e.quantity}]")
            toks.append("-1")
        toks.append("-2")
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def parse_utility_table(text: str | bytes) -> ExternalUtilityTable:
    """Parse ``<item> <value>`` lines into an external utility table."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    values: dict[ItemId, int | Fraction] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(line_no, f"expected 'item value', got {line.strip()!r}")
        try:
            item = int(tokens[0])
            # int() is exact for whole numbers and far cheaper than Fraction's parse.
            value = int(tokens[1]) if tokens[1].isdecimal() else _normalize(Fraction(tokens[1]))
        except ValueError:
            raise ParseError(line_no, f"unparseable entry {line.strip()!r}") from None
        if value <= 0:
            raise ParseError(line_no, f"external utility must be positive, got {value}")
        if item in values:
            raise ParseError(line_no, f"duplicate entry for item {item}")
        values[item] = value
    return ExternalUtilityTable(values)


def serialize_utility_table(table: ExternalUtilityTable) -> str:
    return "".join(f"{item} {value}\n" for item, value in sorted(table.values.items()))


def generate_synthetic(
    num_seqs: int,
    alphabet_size: int,
    min_len: int,
    max_len: int,
    max_quantity: int,
    max_external: int,
    seed: int,
) -> QSequenceDatabase:
    """Deterministically generate a random database from a seed.

    Item ids are 1..alphabet_size; quantities and external utilities are
    uniform integers in [1, max_quantity] and [1, max_external].
    """
    if min(num_seqs, alphabet_size, min_len, max_len, max_quantity, max_external) < 1:
        raise ValueError("all generator parameters must be positive")
    if min_len > max_len:
        raise ValueError("min_len must be <= max_len")
    rng = random.Random(seed)
    table = ExternalUtilityTable(
        {item: rng.randint(1, max_external) for item in range(1, alphabet_size + 1)}
    )
    sequences = []
    for sid in range(num_seqs):
        length = rng.randint(min_len, max_len)
        elements = tuple(
            QItem(rng.randint(1, alphabet_size), rng.randint(1, max_quantity))
            for _ in range(length)
        )
        sequences.append(QSequence(sid=sid, elements=elements))
    return QSequenceDatabase(tuple(sequences), table)


def database_utility(db: QSequenceDatabase) -> int | Fraction:
    """Total utility of the database: sum of quantity times external utility
    over every position of every sequence."""
    total = 0
    for seq in db.sequences:
        for e in seq.elements:
            total += e.quantity * db.utilities.value(e.item)
    return total


def resolve_min_util(cfg: MiningConfig, db: QSequenceDatabase) -> int | Fraction:
    """Absolute thresholds pass through; fractional ones are sigma times the
    database utility, computed exactly."""
    if cfg.min_util is not None:
        return cfg.min_util
    sigma = cfg.sigma if isinstance(cfg.sigma, Fraction) else Fraction(str(cfg.sigma))
    return _normalize(Fraction(sigma * database_utility(db)))


def comparison_threshold(min_util: int | Fraction, db: QSequenceDatabase) -> int | Fraction:
    """A threshold that every utility of ``db`` compares against exactly as
    against ``min_util``, and more cheaply.

    When every external utility and quantity is an ``int``, so is every
    utility, lower bound and sum the miners compare, and for an integer u,
    ``u <= min_util`` exactly when ``u <= floor(min_util)``: the floor, an
    ``int``, then replaces a ``Fraction`` threshold. Otherwise ``min_util``
    is returned unchanged.
    """
    if all(isinstance(v, int) for v in db.utilities.values.values()) and all(
        isinstance(e.quantity, int) for seq in db.sequences for e in seq.elements
    ):
        return math.floor(min_util)
    return min_util
