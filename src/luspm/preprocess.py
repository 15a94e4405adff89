"""Preprocessing shared by the shrinkage and extension miners.

Each database sequence's pattern is first cleaned by the early utility pruning
step (drop positions whose column sum over the pattern's full-database chain
exceeds the threshold), then reduced to the maximal set of patterns none of
which is a subsequence of another. Those survivors are the mining roots.

The column sums are counted, not read from rows (``ChainStore.column_sums``):
a forward and a backward embedding-count pass over each holder sequence give
every column's sum over all of the holder's embeddings, so a pattern with
millions of embeddings costs passes over its holders, not millions of rows.
The antichain filter probes a candidate only against the roots kept so far
that hold at least as many copies of each of its items, found by ANDing
copy-count masks over those roots as ``ChainStore`` does over sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import ChainStore
from .occurrence import SUChain, copy_holders, is_subsequence
from .seqdb import Pattern


@dataclass(frozen=True)
class MaxNonConSeqSet:
    """Antichain of root patterns under the subsequence relation."""

    roots: tuple[Pattern, ...]


def _kept_columns(sums, min_util) -> list[int]:
    """The early utility pruning rule: the columns whose sum is at most
    ``min_util``."""
    return [q for q, total in enumerate(sums) if total <= min_util]


def eups_prune(pattern: Pattern, chain: SUChain, min_util) -> tuple[Pattern, SUChain]:
    """Remove every position whose column sum exceeds ``min_util``.

    Columns are judged against the original chain in a single pass; the
    returned chain has the same columns deleted from every row.
    """
    keep = _kept_columns(map(chain.column_sum, range(chain.length)), min_util)
    pruned = tuple(pattern[q] for q in keep)
    rows = tuple(tuple(row[q] for q in keep) for row in chain.rows)
    return pruned, SUChain(len(keep), rows)


def build_max_non_con_seq_set(store: ChainStore, min_util) -> MaxNonConSeqSet:
    """Prune each sequence's pattern, drop empties and duplicates, then keep
    only patterns that are not subsequences of another retained pattern.

    Each sequence's chain is created through ``store.column_sums``, so the
    store's counter sees each distinct pattern once, but no row is pulled.
    """
    candidates: list[Pattern] = []
    seen: set[Pattern] = set()
    for seq in store.db.sequences:
        pattern = seq.items
        keep = _kept_columns(store.column_sums(pattern), min_util)
        pruned = tuple(pattern[q] for q in keep)
        if pruned and pruned not in seen:
            seen.add(pruned)
            candidates.append(pruned)
    # Only a strictly longer candidate holding at least as many copies of
    # each of p's items can contain p (two distinct ones of equal length
    # cannot), and containment is transitive; so, longest first, p is a root
    # unless a longer root contains it. ``masks[item][c - 1]`` has bit r set
    # when ``kept[r]`` holds c or more copies of the item.
    kept: list[Pattern] = []
    masks: dict[int, list[int]] = {}
    for p in sorted(candidates, key=len, reverse=True):
        if any(
            len(kept[r]) > len(p) and is_subsequence(p, kept[r])
            for r in copy_holders(p, masks, len(kept))
        ):
            continue
        bit = 1 << len(kept)
        kept.append(p)
        for item in set(p):
            at_least = masks.setdefault(item, [])
            copies = p.count(item)
            at_least += [0] * (copies - len(at_least))
            for c in range(copies):
                at_least[c] |= bit
    found = set(kept)
    return MaxNonConSeqSet(tuple(p for p in candidates if p in found))
