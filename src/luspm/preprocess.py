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


def eups_prune(pattern: Pattern, chain: SUChain, min_util) -> tuple[Pattern, SUChain]:
    """Remove every position whose column sum exceeds ``min_util``.

    Columns are judged against the original chain in a single pass; the
    returned chain has the same columns deleted from every row.
    """
    keep = [q for q in range(chain.length) if chain.column_sum(q) <= min_util]
    pruned = tuple(pattern[q] for q in keep)
    rows = tuple(tuple(row[q] for q in keep) for row in chain.rows)
    return pruned, SUChain(len(keep), rows)


def build_max_non_con_seq_set(store: ChainStore, min_util) -> MaxNonConSeqSet:
    """Prune each sequence's pattern, drop empties and duplicates, then keep
    only patterns that are not subsequences of another retained pattern.

    Chains come from ``store``, so its counter sees each distinct pattern once.
    """
    candidates: list[Pattern] = []
    seen: set[Pattern] = set()
    for seq in store.db.sequences:
        pattern = seq.items
        pruned, _ = eups_prune(pattern, store.chain(pattern), min_util)
        if pruned and pruned not in seen:
            seen.add(pruned)
            candidates.append(pruned)
    roots = [
        p
        for p in candidates
        if not any(q != p and is_subsequence(p, q) for q in candidates)
    ]
    return MaxNonConSeqSet(tuple(roots))
