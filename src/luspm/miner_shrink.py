"""Shrinkage miner: depth-first removal of positions from each root pattern.

Two regimes per the search-tree design: below a pattern whose true utility is
within the threshold, every child is evaluated directly (``_shrinkage``);
below one whose utility exceeds it, the ancestor's chain is carried down and
children are first screened by its restricted sum (the lower bound LBS) so
most true-utility evaluations are skipped, and positions whose frozen-prefix
lower bound exceeds the threshold are removed wholesale (``_prune_item``).

Every decision is a threshold question: ``ChainStore.evaluate`` answers a
pattern's exact (utility, support), summed without rows, or ``None`` once
its utility exceeds the threshold; a carried lazy chain
(``chains.LazyChain``) answers whether its restricted total exceeds it
(``exceeds``) and which positions' frozen-prefix bounds do (``marked``); and
children are lazy restrictions of it. Each question reads only until it is
decided, and its answer is the full chain's, so the search takes the same
path, evaluates the same patterns in the same order and reports the same
skips and prunes as on fully built chains.

Each (pattern, position) node is expanded once per run, by whichever regime
reaches it first; the same node is reached again from other roots and other
removal orders, and on n copies of one item along all 2^n position subsets.
That is sound because both regimes at ``(s, p)`` search the same subtree,
every subsequence of ``s`` that keeps ``s[:p]``, and each regime is complete
for it under any valid lower-bound rows. A second visit, even with another
root's rows, could only repeat effects that are idempotent: first-wins
records and memoized evaluations. The node is the ``s`` that enters the call,
before ``_prune_item`` shrinks it. The memo is kept by
``miner_base.first_visit``, which the extension miner's row-free regime
shares.
"""

from __future__ import annotations

import sys

# ``column_bound`` and ``restrict_rows`` are not called here; they stay
# imported because the benchmark's tracer (perfbench/tracer.py) patches this
# module's names for them.
from .chains import ChainStore, LazyChain, column_bound, restrict_rows
from .miner_base import LuspRecord, LuspResult, first_visit
from .occurrence import UtilityCounter, build_bit_index
from .preprocess import build_max_non_con_seq_set
from .seqdb import (
    MiningConfig,
    Pattern,
    QSequenceDatabase,
    comparison_threshold,
    resolve_min_util,
)
from .shadow import MiningShadow

RECURSION_HEADROOM = 100_000


class _ShrinkMiner:
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
        self.store = ChainStore(
            db, build_bit_index(db), counter, threshold=self.threshold
        )
        self.shadow = shadow
        self._sink: dict[Pattern, tuple] = {}
        # Pattern -> bitmask of the positions it has been expanded at.
        self._expanded: dict[Pattern, int] = {}

    def run(self) -> LuspResult:
        roots = build_max_non_con_seq_set(self.store, self.threshold).roots
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, RECURSION_HEADROOM))
        try:
            for root in roots:
                self._mine_root(root)
        finally:
            sys.setrecursionlimit(limit)
        records = [LuspRecord(p, u, s) for p, (u, s) in self._sink.items()]
        return LuspResult.from_records(records, self.min_util, self.max_len)

    def _len_ok(self, pattern: Pattern) -> bool:
        return self.max_len is None or len(pattern) <= self.max_len

    def _record(self, pattern: Pattern, utility, support: int) -> None:
        self._sink.setdefault(pattern, (utility, support))

    def _mine_root(self, root: Pattern) -> None:
        totals = self.store.evaluate(root)
        if totals is not None:
            # ``_shrinkage(root, 0)`` reaches every removal product of the
            # root, so a lower-bound-screened pass from it would repeat work.
            self._shrinkage(root, 0)
            if self._len_ok(root):
                self._record(root, *totals)
        else:
            self._shrinkage_depth(root, self.store.tagged(root), 0)

    def _shrinkage(self, s: Pattern, p: int) -> None:
        if not first_visit(self._expanded, s, p):
            return
        if p + 1 < len(s):
            self._shrinkage(s, p + 1)
        if p < len(s):
            q = s[:p] + s[p + 1 :]
            if not q:
                return
            totals = self.store.evaluate(q)
            if totals is not None:
                if p < len(q):
                    self._shrinkage(q, p)
                if self._len_ok(q):
                    self._record(q, *totals)
            elif p < len(q):
                self._shrinkage_depth(q, self.store.tagged(q), p)

    def _shrinkage_depth(self, s: Pattern, chain: LazyChain, p: int) -> None:
        if not first_visit(self._expanded, s, p):
            return
        if p < len(s):
            s, chain, pruned = self._prune_item(s, chain, p)
            if pruned and s:
                # The survivor is itself a removal product (its marked
                # positions were deleted en masse), so it gets the same
                # lower-bound-gated evaluation a remove branch would apply.
                # Its proper subsets are covered by the recursion below.
                self._screen(s, chain)
        if p + 1 < len(s):
            self._shrinkage_depth(s, chain, p + 1)
        if p >= len(s):
            return
        q = s[:p] + s[p + 1 :]
        if not q:
            return
        child = chain.restrict([*range(p), *range(p + 1, len(s))])
        if self._len_ok(q):
            if not child.exceeds(self.threshold):
                totals = self.store.evaluate(q)
                if totals is not None:
                    self._record(q, *totals)
                    self._shrinkage(q, p)
                elif p < len(q):
                    self._shrinkage_depth(q, self.store.tagged(q), p)
            else:
                if self.shadow is not None:
                    self.shadow.sluspb_skip(q)
                if p < len(q):
                    self._shrinkage_depth(q, child, p)
        elif p < len(q):
            self._shrinkage_depth(q, child, p)

    def _screen(self, q: Pattern, chain: LazyChain) -> None:
        """Lower-bound-gated evaluation of one candidate, without recursion."""
        if not self._len_ok(q):
            return
        if chain.exceeds(self.threshold):
            if self.shadow is not None:
                self.shadow.sluspb_skip(q)
            return
        totals = self.store.evaluate(q)
        if totals is not None:
            self._record(q, *totals)

    def _prune_item(
        self, s: Pattern, chain: LazyChain, p: int
    ) -> tuple[Pattern, LazyChain, bool]:
        marked = chain.marked(p, len(s), self.threshold)
        if not marked:
            return s, chain, False
        if self.shadow is not None:
            for i in marked:
                self.shadow.sbips_prune(s, p, i)
        drop = set(marked)
        keep = [j for j in range(len(s)) if j not in drop]
        return tuple(s[j] for j in keep), chain.restrict(keep), True


def mine_shrink(
    db: QSequenceDatabase,
    cfg: MiningConfig,
    counter: UtilityCounter | None = None,
    shadow: MiningShadow | None = None,
    threads: int = 1,
) -> LuspResult:
    """Mine the complete LUSP set by shrinkage; output equals the baseline's."""
    # ``threads`` is kept only for perfbench/bench.py's ``threads=1`` call.
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    return _ShrinkMiner(db, cfg, counter, shadow).run()
