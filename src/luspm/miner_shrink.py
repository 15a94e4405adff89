"""Shrinkage miner: depth-first removal of positions from each root pattern.

Two regimes per the search-tree design: below a pattern whose true utility is
within the threshold, every child is evaluated directly (``_shrinkage``);
below one whose utility exceeds it, the ancestor's chain is carried down and
children are first screened by its restricted sum (the lower bound LBS) so
most true-utility evaluations are skipped, and positions whose frozen-prefix
lower bound exceeds the threshold are removed wholesale (``_prune_item``).

An exact expansion ``_shrinkage(s, p)`` depends only on the pattern, the
position and the threshold, and its effects (first-wins records, memoized
chains) are idempotent, so each (pattern, position) node is expanded once per
run. Without that, n copies of one item reach the same n patterns along all
2^n position subsets.
"""

from __future__ import annotations

import sys

# ``column_bound`` is not called here; it stays imported because the
# benchmark's tracer (perfbench/tracer.py) patches this module's name for it.
from .chains import (
    ChainStore,
    TaggedRows,
    column_bound,
    prefix_bounds,
    restrict_rows,
    rows_total,
)
from .miner_base import LuspRecord, LuspResult
from .occurrence import UtilityCounter, build_bit_index
from .preprocess import build_max_non_con_seq_set
from .seqdb import MiningConfig, Pattern, QSequenceDatabase, resolve_min_util
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
        self.max_len = cfg.max_len
        self.store = ChainStore(db, build_bit_index(db), counter)
        self.shadow = shadow
        self._sink: dict[Pattern, tuple] = {}
        self._expanded: set[tuple[Pattern, int]] = set()

    def run(self) -> LuspResult:
        roots = build_max_non_con_seq_set(self.store, self.min_util).roots
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
        utility, support = self.store.evaluate(root)
        if utility <= self.min_util:
            # ``_shrinkage(root, 0)`` reaches every removal product of the
            # root, so a lower-bound-screened pass from it would repeat work.
            self._shrinkage(root, 0)
            if self._len_ok(root):
                self._record(root, utility, support)
        else:
            self._shrinkage_depth(root, self.store.tagged(root), 0)

    def _shrinkage(self, s: Pattern, p: int) -> None:
        if (s, p) in self._expanded:
            return
        self._expanded.add((s, p))
        if p + 1 < len(s):
            self._shrinkage(s, p + 1)
        if p < len(s):
            q = s[:p] + s[p + 1 :]
            if not q:
                return
            utility, support = self.store.evaluate(q)
            if utility <= self.min_util:
                if p < len(q):
                    self._shrinkage(q, p)
                if self._len_ok(q):
                    self._record(q, utility, support)
            elif p < len(q):
                self._shrinkage_depth(q, self.store.tagged(q), p)

    def _shrinkage_depth(self, s: Pattern, rows: TaggedRows, p: int) -> None:
        if p < len(s):
            s, rows, pruned = self._prune_item(s, rows, p)
            if pruned and s:
                # The survivor is itself a removal product (its marked
                # positions were deleted en masse), so it gets the same
                # lower-bound-gated evaluation a remove branch would apply.
                # Its proper subsets are covered by the recursion below.
                self._screen(s, rows)
        if p + 1 < len(s):
            self._shrinkage_depth(s, rows, p + 1)
        if p >= len(s):
            return
        q = s[:p] + s[p + 1 :]
        if not q:
            return
        new_rows = restrict_rows(rows, [c for c in range(len(s)) if c != p])
        if self._len_ok(q):
            lbs = rows_total(new_rows)
            if lbs <= self.min_util:
                utility, support = self.store.evaluate(q)
                if utility <= self.min_util:
                    self._record(q, utility, support)
                    self._shrinkage(q, p)
                elif p < len(q):
                    self._shrinkage_depth(q, self.store.tagged(q), p)
            else:
                if self.shadow is not None:
                    self.shadow.sluspb_skip(q)
                if p < len(q):
                    self._shrinkage_depth(q, new_rows, p)
        elif p < len(q):
            self._shrinkage_depth(q, new_rows, p)

    def _screen(self, q: Pattern, rows: TaggedRows) -> None:
        """Lower-bound-gated evaluation of one candidate, without recursion."""
        if not self._len_ok(q):
            return
        if rows_total(rows) > self.min_util:
            if self.shadow is not None:
                self.shadow.sluspb_skip(q)
            return
        utility, support = self.store.evaluate(q)
        if utility <= self.min_util:
            self._record(q, utility, support)

    def _prune_item(
        self, s: Pattern, rows: TaggedRows, p: int
    ) -> tuple[Pattern, TaggedRows, bool]:
        bounds = prefix_bounds(rows, p, len(s))
        marked = [i for i, bound in enumerate(bounds, p) if bound > self.min_util]
        if not marked:
            return s, rows, False
        if self.shadow is not None:
            for i in marked:
                self.shadow.sbips_prune(s, p, i)
        drop = set(marked)
        keep = [j for j in range(len(s)) if j not in drop]
        return tuple(s[j] for j in keep), restrict_rows(rows, keep), True


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
