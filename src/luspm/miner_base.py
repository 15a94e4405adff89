"""Exhaustive baseline miner, the shared result model and the node memo.

The baseline enumerates every distinct subsequence of every database sequence
and keeps those with positive utility at most the threshold. It applies no
pruning and serves as the ground-truth oracle for the other miners.

It sweeps each sequence once with a dynamic program over the sequence's
distinct subsequences rather than over its position subsets: every pattern
seen so far carries its utility sum and embedding count, and a position
holding item ``x`` extends each of them by ``x``, adding the pattern's
embedding count times the position's utility. The sums are exact (``int`` or
``Fraction``) and cover every embedding, so the result is the exhaustive one,
at a cost set by the number of distinct subsequences: n copies of one item
take about n²/2 steps over n patterns, not 2^n position subsets. The program
shares no code with the chain layer the other miners search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, inf

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
    """(utility sum, embedding count) of every distinct pattern of length at
    most ``max_len``, over every embedding in every sequence.

    Each sequence is swept once, left to right, keeping the totals of the
    patterns of the positions seen so far. The embeddings of ``p + (x,)``
    that end at a position holding ``x`` with utility ``u`` are ``p``'s
    earlier embeddings, each extended by that position, so ``p``'s
    ``(ut, cnt)`` adds ``(ut + cnt * u, cnt)`` to ``p + (x,)``, and ``(x,)``
    gains ``(u, 1)``. The sequence's totals are then added to the database's.
    Every embedding is counted once, in the totals of the pattern it
    induces, so the sums are the exact utility and support: repeated
    embeddings are summed rather than listed, and nothing is pruned.

    ``CandidateCapExceeded`` is raised exactly when more than ``cap`` distinct
    patterns exist. One sequence's patterns never outnumber the union after
    its merge, so checking them as they appear raises no earlier, and keeps a
    single long sequence from growing unbounded before its merge.
    """
    limit = inf if cap is None else cap
    longest = inf if max_len is None else max_len
    acc: dict[Pattern, tuple] = {}
    for seq in db.sequences:
        local: dict[Pattern, tuple] = {}
        get = local.get
        for x, u in zip(seq.items, db.sequence_utilities(seq)):
            # Only the patterns from before this position are extended: the
            # key list is taken first. ``p + (x,)`` was created by extending
            # ``p``, so it comes after ``p`` in insertion order, and walking
            # that order backwards reads each pattern's totals before this
            # position adds to them.
            for p in reversed(list(local)):
                if len(p) < longest:
                    ut, cnt = local[p]
                    key = p + (x,)
                    entry = get(key)
                    if entry is None:
                        if len(local) >= limit:
                            raise _cap_exceeded(cap)
                        local[key] = (ut + cnt * u, cnt)
                    else:
                        local[key] = (entry[0] + ut + cnt * u, entry[1] + cnt)
            key = (x,)
            entry = get(key)
            if entry is None:
                if len(local) >= limit:
                    raise _cap_exceeded(cap)
                local[key] = (u, 1)
            else:
                local[key] = (entry[0] + u, entry[1] + 1)
        # Merge the smaller dict into the larger.
        if len(local) > len(acc):
            acc, local = local, acc
        for p, (ut, cnt) in local.items():
            entry = acc.get(p)
            acc[p] = (ut, cnt) if entry is None else (entry[0] + ut, entry[1] + cnt)
        if len(acc) > limit:
            raise _cap_exceeded(cap)
    return acc


def _cap_exceeded(cap: int) -> CandidateCapExceeded:
    return CandidateCapExceeded(f"more than {cap} distinct candidates")


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
    # An int utility is at most ``min_util`` exactly when it is at most its
    # floor, which spares a ``Fraction`` comparison per candidate under a
    # sigma threshold; any other utility is compared with ``min_util`` itself.
    whole = floor(min_util)
    records = [
        LuspRecord(pattern, utility, sup)
        for pattern, (utility, sup) in acc.items()
        if 0 < utility
        and (utility <= whole if type(utility) is int else utility <= min_util)
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
