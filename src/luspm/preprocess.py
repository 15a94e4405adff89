"""Preprocessing shared by the shrinkage and extension miners.

Each database sequence's pattern is first cleaned by the early utility pruning
step (drop positions whose column sum over the pattern's full-database chain
exceeds the threshold), then reduced to the maximal set of patterns none of
which is a subsequence of another. Those survivors are the mining roots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import ChainStore
from .occurrence import SUChain, is_subsequence
from .seqdb import Pattern


@dataclass(frozen=True)
class MaxNonConSeqSet:
    """Antichain of root patterns under the subsequence relation."""

    roots: tuple[Pattern, ...]


def _kept_columns(util_rows, width: int, min_util) -> list[int]:
    """The early utility pruning rule: the columns, of ``width``, whose sum
    over the utility rows is at most ``min_util``."""
    sums = [sum(column) for column in zip(*util_rows)] or [0] * width
    return [q for q, total in enumerate(sums) if total <= min_util]


def eups_prune(pattern: Pattern, chain: SUChain, min_util) -> tuple[Pattern, SUChain]:
    """Remove every position whose column sum exceeds ``min_util``.

    Columns are judged against the original chain in a single pass; the
    returned chain has the same columns deleted from every row.
    """
    keep = _kept_columns(chain.rows, chain.length, min_util)
    pruned = tuple(pattern[q] for q in keep)
    rows = tuple(tuple(row[q] for q in keep) for row in chain.rows)
    return pruned, SUChain(len(keep), rows)


def build_max_non_con_seq_set(store: ChainStore, min_util) -> MaxNonConSeqSet:
    """Prune each sequence's pattern, drop empties and duplicates, then keep
    only patterns that are not subsequences of another retained pattern.

    Column sums are read from ``store``'s rows, so its counter sees each
    distinct pattern once.
    """
    candidates: list[Pattern] = []
    seen: set[Pattern] = set()
    for seq in store.db.sequences:
        pattern = seq.items
        rows = store.tagged(pattern)
        keep = _kept_columns((util for _, _, util in rows), len(pattern), min_util)
        pruned = tuple(pattern[q] for q in keep)
        if pruned and pruned not in seen:
            seen.add(pruned)
            candidates.append(pruned)
    # Only a strictly longer candidate holding all of p's items can contain p
    # (two distinct ones of equal length cannot), and containment is
    # transitive; so, longest first, p is a root unless a longer root
    # contains it.
    longest_first: list[tuple[Pattern, frozenset]] = []
    for p in sorted(candidates, key=len, reverse=True):
        items = frozenset(p)
        if not any(
            len(q) > len(p) and items <= q_items and is_subsequence(p, q)
            for q, q_items in longest_first
        ):
            longest_first.append((p, items))
    found = {p for p, _ in longest_first}
    return MaxNonConSeqSet(tuple(p for p in candidates if p in found))
