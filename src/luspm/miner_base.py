"""Exhaustive baseline miner, the shared result model and the node memo.

The baseline enumerates every distinct subsequence of every database sequence
and keeps those with positive utility at most the threshold. It applies no
pruning and serves as the ground-truth oracle for the other miners.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import CandidateCapExceeded
from .occurrence import UtilityCounter
from .seqdb import MiningConfig, Pattern, QSequenceDatabase, resolve_min_util

DEFAULT_CANDIDATE_CAP = 5_000_000


@dataclass(frozen=True)
class LuspRecord:
    pattern: Pattern
    utility: int | Fraction
    support: int


@dataclass(frozen=True)
class LuspResult:
    """Deduplicated set of mined patterns plus the config it was mined under."""

    records: tuple[LuspRecord, ...]
    min_util: int | Fraction
    max_len: int | None

    @staticmethod
    def from_records(records, min_util, max_len) -> "LuspResult":
        ordered = tuple(sorted(records, key=lambda r: r.pattern))
        patterns = [r.pattern for r in ordered]
        if len(set(patterns)) != len(patterns):
            raise ValueError("duplicate patterns in result")
        return LuspResult(ordered, min_util, max_len)

    def as_set(self) -> set[tuple]:
        return {(r.pattern, r.utility, r.support) for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    def serialize(self) -> str:
        """One line per pattern: items, utility, support, tab-separated,
        lexicographic by item ids."""
        lines = []
        for r in self.records:
            items = " ".join(str(i) for i in r.pattern)
            lines.append(f"{items}\t{r.utility}\t{r.support}\n")
        return "".join(lines)


def first_visit(expanded: dict[Pattern, int], s: Pattern, p: int) -> bool:
    """Mark the search node ``(s, p)`` expanded in a miner's node memo; false
    if it already was.

    The memo maps each pattern to a bitmask of the positions it has been
    expanded at (bit ``p`` set once ``(s, p)`` is), rather than holding a set
    of ``(s, p)`` pairs: a pattern is typically expanded at several
    positions, and one int per pattern holds them all for the price of one
    dict entry instead of one tuple and set slot per pair.
    """
    done = expanded.get(s, 0)
    if done >> p & 1:
        return False
    expanded[s] = done | 1 << p
    return True


def enumerate_all_subsequences(
    db: QSequenceDatabase,
    max_len: int | None = None,
    cap: int | None = DEFAULT_CANDIDATE_CAP,
) -> set[Pattern]:
    """All distinct non-empty subsequences (as item sequences) of all database
    sequences, length-capped during generation."""
    return set(_aggregate_candidates(db, max_len, cap))


def _aggregate_candidates(db, max_len, cap):
    """Sweep every position subset of every sequence once, accumulating
    (utility sum, embedding count) per distinct pattern.

    Each non-empty subset of positions is exactly one embedding of its induced
    pattern, so the per-pattern totals are the true utility and support.
    """
    acc: dict[Pattern, list] = {}
    for seq in db.sequences:
        items = seq.items
        utils = db.sequence_utilities(seq)
        n = len(items)
        limit = n if max_len is None else min(n, max_len)
        prefix: list[int] = []

        def descend(start: int, usum) -> None:
            for j in range(start, n):
                prefix.append(items[j])
                u = usum + utils[j]
                key = tuple(prefix)
                entry = acc.get(key)
                if entry is None:
                    if cap is not None and len(acc) >= cap:
                        raise CandidateCapExceeded(
                            f"more than {cap} distinct candidates"
                        )
                    acc[key] = [u, 1]
                else:
                    entry[0] += u
                    entry[1] += 1
                if len(prefix) < limit:
                    descend(j + 1, u)
                prefix.pop()

        descend(0, 0)
    return acc


def mine_baseline(
    db: QSequenceDatabase,
    cfg: MiningConfig,
    counter: UtilityCounter | None = None,
    cap: int | None = DEFAULT_CANDIDATE_CAP,
) -> LuspResult:
    """Evaluate the true utility of every candidate; keep those with
    0 < utility <= min_util and length <= max_len."""
    min_util = resolve_min_util(cfg, db)
    acc = _aggregate_candidates(db, cfg.max_len, cap)
    if counter is not None:
        counter.increment(len(acc))
    records = [
        LuspRecord(pattern, utility, sup)
        for pattern, (utility, sup) in acc.items()
        if 0 < utility <= min_util
    ]
    return LuspResult.from_records(records, min_util, cfg.max_len)


def estimate_utility_computations(db: QSequenceDatabase, max_len: int | None = None) -> int:
    """Upper bound on the baseline's distinct-candidate count: position
    subsets of every sequence, before deduplication. Usable when the real
    baseline is intractable."""
    total = 0
    for seq in db.sequences:
        n = len(seq)
        limit = n if max_len is None else min(n, max_len)
        total += sum(comb(n, k) for k in range(1, limit + 1))
    return total
