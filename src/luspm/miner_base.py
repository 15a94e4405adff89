"""Exhaustive baseline miner, the shared result model, and the scaffold the
shrinkage and extension miners search under.

The baseline enumerates every distinct subsequence of every database sequence
and keeps those with positive utility at most the threshold. It applies no
pruning and serves as the ground-truth oracle for the other miners.

It sweeps each sequence once per item it holds, from that item's first copy
on, with a dynamic program over distinct subsequences rather than position
subsets: every pattern seen so far carries its utility sum and embedding
count, and a position holding item ``x`` extends each of them by ``x``,
adding the pattern's embedding count times the position's utility. The
sums are exact (``int`` or ``Fraction``) and cover every embedding, so the
result is the exhaustive one, at a cost set by the number of distinct
subsequences: n copies of one item take about n²/2 steps over n patterns,
not 2^n position subsets. The program shares no code with the chain layer
the other miners search.

Patterns are integer ids in a prefix trie (the lexicographic sequence tree of
USpan, Yin, Zheng and Cao, KDD 2012): id ``g`` is pattern ``parent[g]``
followed by ``item[g]``, and id 0 is the empty pattern. Totals live in lists
indexed by id, and within a sequence by a local id in creation order, so a
step of the program is a few list reads and writes, with no pattern tuple and
no totals tuple built. A pattern's item tuple is built only for the ids kept
in the result. Patterns with different first items share no trie node, so
each first item's trie is built, read and freed before the next: the peak is
the largest such class plus the results, not every distinct pattern.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, floor, inf

from .chains import ChainStore
from .errors import CandidateCapExceeded
from .occurrence import UtilityCounter
from .seqdb import MiningConfig, Pattern, QSequenceDatabase, comparison_threshold, resolve_min_util
from .shadow import MiningShadow

DEFAULT_CANDIDATE_CAP = 5_000_000

# Frames a search may take beyond two per root position (see ``RootSearch``).
SEARCH_SLACK = 50


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


_recursion_lock = threading.Lock()


def _add_to_recursion_limit(frames: int) -> None:
    """Add ``frames`` to the interpreter's recursion limit, or take them off.

    The limit is interpreter-wide. Saving and restoring an absolute value
    would let one run lower the limit under another's deep recursion, or
    leave it raised; relative changes, each read and written under one lock,
    add up across concurrent runs and undo only their own headroom.
    """
    with _recursion_lock:
        sys.setrecursionlimit(sys.getrecursionlimit() + frames)


class RootSearch:
    """The scaffold of the shrinkage and extension miners: a threshold, a
    chain store and a node memo, one recursive search per root, the result.
    A subclass builds the bit index (``_index``) and the roots (``_roots``)
    through its own module's names, which the benchmark's tracer patches,
    searches below the root ``roots[i]`` (``_mine_root(i)``) and lists its
    records once every root is searched (``_records``).

    Every recursive call of either search shortens the pattern ``s`` or
    advances the cursor ``p``, so ``len(s) - p`` strictly falls along any
    chain of calls. Shrink's ``_enter`` and extend's ``_descend`` add at most
    one frame per drop, so below a root of length n a search is at most 2n
    frames deep, plus the store's and chains' calls at its deepest node. The
    roots are searched under that much headroom, and no more.

    The length cap ``len_cap`` (``max_len``, or ``inf`` when there is none)
    bounds the cursor of both searches. Every pattern below extend's node
    ``(s, p)`` is at least ``p + 1`` long and every one below shrink's keeps
    ``s[:p]``, so extend never advances its cursor to ``p >= len_cap`` and
    shrink never to ``p > len_cap``: neither walks a node below which every
    pattern is longer than the cap.
    """

    def __init__(
        self,
        db: QSequenceDatabase,
        cfg: MiningConfig,
        counter: UtilityCounter | None,
        shadow: MiningShadow | None,
    ):
        self.min_util = resolve_min_util(cfg, db)
        # Every comparison is against ``threshold``; the result keeps the
        # exact ``min_util``.
        self.threshold = comparison_threshold(self.min_util, db)
        self.max_len = cfg.max_len
        self.len_cap = inf if cfg.max_len is None else cfg.max_len
        self.store = ChainStore(db, self._index(db), counter, threshold=self.threshold)
        self.shadow = shadow
        # Pattern -> bitmask of the positions it has been expanded at.
        self._expanded: dict[Pattern, int] = {}
        # The patterns the search admits, in first-admission order, each with
        # the value it was first admitted with.
        self._admitted: dict[Pattern, object] = {}
        # The roots, in search order; set by ``run``.
        self.roots: tuple[Pattern, ...] = ()

    @classmethod
    def mine(cls, db, cfg, counter, shadow, threads: int) -> LuspResult:
        # ``threads`` is kept only for perfbench/bench.py's ``threads=1`` call.
        if threads != 1:
            raise ValueError(f"threads must be 1, got {threads}")
        return cls(db, cfg, counter, shadow).run()

    def run(self) -> LuspResult:
        self.roots = self._roots()
        headroom = 2 * max(map(len, self.roots), default=0) + SEARCH_SLACK
        _add_to_recursion_limit(headroom)
        try:
            for i in range(len(self.roots)):
                self._mine_root(i)
        finally:
            _add_to_recursion_limit(-headroom)
        return LuspResult.from_records(self._records(), self.min_util, self.max_len)


def enumerate_all_subsequences(
    db: QSequenceDatabase,
    max_len: int | None = None,
    cap: int | None = DEFAULT_CANDIDATE_CAP,
) -> set[Pattern]:
    """All distinct non-empty subsequences (as item sequences) of all database
    sequences, length-capped during generation, spelled out class by class."""
    patterns: set[Pattern] = set()

    def gather(parent, item, ut, cnt):
        built = [()]
        for g in range(1, len(parent)):
            built.append(built[parent[g]] + (item[g],))
        patterns.update(built[1:])

    _aggregate_candidates(db, max_len, cap, gather)
    return patterns


def _aggregate_candidates(db, max_len, cap, visit) -> int:
    """Hand ``visit`` each first item's ``_class_trie``, and return the number
    of distinct patterns. Every embedding has exactly one first item, so the
    classes partition the patterns, with their totals. A class, and a
    sequence's row after its last class, is released before the next class
    is built. ``CandidateCapExceeded`` is raised as soon as the classes built
    so far hold more than ``cap`` distinct patterns, even inside one long
    sequence: exactly when more than ``cap`` distinct patterns exist."""
    holders: dict = {}  # item -> (items, utilities) of each sequence holding it
    for seq in db.sequences:
        row = (seq.items, db.sequence_utilities(seq))
        for x in set(row[0]):
            holders.setdefault(x, []).append(row)
    total = 0
    while holders:
        parent, item, ut, cnt = _class_trie(*holders.popitem(), max_len, cap, total)
        total += len(parent) - 1
        visit(parent, item, ut, cnt)
        del parent, item, ut, cnt  # before the next class is built
    return total


def _class_trie(x0, rows, max_len, cap, seen):
    """The trie ``(parent, item, ut, cnt)`` of the patterns of length at most
    ``max_len`` that start with ``x0``, summed over ``rows``, the items and
    utilities of the sequences holding ``x0``. ``seen`` patterns of other
    classes already count against ``cap``.

    Pattern ``g`` is pattern ``parent[g]`` followed by ``item[g]``; id 0 is
    the empty pattern, and a child's id is larger than its parent's.

    Each sequence is swept once, left to right, from its first ``x0``. Every
    distinct pattern of the positions seen so far has a local id, in creation
    order, holding its trie id and its sequence's ``(ut, cnt)``; local 0 is
    the empty pattern, with count 1. ``kid[x][l]`` is the local id of ``l``'s
    ``x``-extension, or 0 (no pattern's extension) when ``l`` is already
    ``max_len`` long, or is the empty pattern and ``x`` is not ``x0``. The
    embeddings of ``l + x`` that end at a position holding ``x`` with utility
    ``u`` are ``l``'s earlier embeddings, each extended by that position, so
    ``l`` adds ``(ut + cnt * u, cnt)`` to ``l + x``. At such a position:

    1. The local ids from ``len(kid[x])`` on are the patterns created since
       ``x`` last occurred. None has an ``x``-extension yet, so each gets a
       new one holding just these embeddings.
    2. Every older local id then adds to its existing ``x``-extension,
       walked in descending order: an extension's local id is larger than
       its parent's, so each parent is read before it gains this position's
       embeddings as an extension itself.

    The empty pattern's one extension is ``(x0,)``, which gains ``(u, 1)`` at
    each ``x0``. At the sequence's end its local totals are added to the
    trie's. Every embedding that starts with ``x0`` is counted once, in the
    totals of the pattern it induces, so the sums are the exact utility and
    support: repeated embeddings are summed rather than listed, and nothing
    is pruned. No tuple is built per step.
    """
    room = inf if cap is None else cap - seen
    parent, item, depth, ut, cnt = [0], [None], [0], [0], [0]
    children: dict = {}  # item -> {parent id: child id}
    for items, utils in rows:
        start = items.index(x0)
        longest = len(items) if max_len is None else max_len
        tid, lut, lcnt = [0], [0], [1]
        kid: dict = {}
        for x, u in zip(items[start:], utils[start:]):
            ks = kid.get(x)
            if ks is None:
                # The empty pattern is extended by ``x0`` alone.
                ks = kid[x] = [] if x == x0 else [0]
            xs = children.get(x)
            if xs is None:
                xs = children[x] = {}
            m = len(ks)
            # 1. Patterns created since ``x`` last occurred: new extensions.
            for l in range(m, len(tid)):
                g = tid[l]
                if depth[g] >= longest:
                    ks.append(0)
                    continue
                c = xs.get(g)
                if c is None:
                    c = xs[g] = len(parent)
                    if c > room:
                        raise _cap_exceeded(cap)
                    parent.append(g)
                    item.append(x)
                    depth.append(depth[g] + 1)
                    ut.append(0)
                    cnt.append(0)
                ks.append(len(tid))
                tid.append(c)
                k = lcnt[l]
                lut.append(lut[l] + k * u)
                lcnt.append(k)
            # 2. Older patterns, descending: add to their extensions.
            for l in range(m - 1, -1, -1):
                c = ks[l]
                if c:
                    k = lcnt[l]
                    lut[c] += lut[l] + k * u
                    lcnt[c] += k
        for l in range(1, len(tid)):
            g = tid[l]
            ut[g] += lut[l]
            cnt[g] += lcnt[l]
    return parent, item, ut, cnt


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
    # An int utility is at most ``min_util`` exactly when it is at most its
    # floor, which spares a ``Fraction`` comparison per candidate under a
    # sigma threshold; any other utility is compared with ``min_util`` itself.
    whole = floor(min_util)
    records = []

    def keep(parent, item, ut, cnt):
        # The empty pattern's total is 0, so it is never kept. Item tuples
        # are built only for kept ids: ids ascend and a parent's id is
        # smaller than its child's, so a kept parent is built first, and a
        # parent that is not is built, with its unbuilt ancestors, by walking
        # up ``parent``.
        built = [None] * len(parent)
        built[0] = ()
        for g, utility in enumerate(ut):
            if 0 < utility and (
                utility <= whole if type(utility) is int else utility <= min_util
            ):
                q = parent[g]
                pattern = built[q]
                if pattern is None:
                    path = []
                    while pattern is None:
                        path.append(q)
                        q = parent[q]
                        pattern = built[q]
                    for h in reversed(path):
                        pattern = built[h] = pattern + (item[h],)
                pattern = built[g] = pattern + (item[g],)
                records.append(LuspRecord(pattern, utility, cnt[g]))

    total = _aggregate_candidates(db, cfg.max_len, cap, keep)
    if counter is not None:
        counter.increment(total)
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
