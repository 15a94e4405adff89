"""Shrinkage miner: depth-first removal of positions from each root pattern.

Two regimes per the search-tree design: below a pattern whose true utility is
within the threshold, every child is evaluated directly (``_shrinkage``);
below one whose utility exceeds it, the ancestor's chain is carried down and
children are first screened by its projected sum (the lower bound LBS) so
most true-utility evaluations are skipped, and positions whose frozen-prefix
lower bound exceeds the threshold are removed wholesale (``_prune_item``).
Roots, removal products and screened children all enter through
``_enter``, which evaluates, records and picks the regime.

Every decision is a threshold question: ``ChainStore.evaluate`` answers a
pattern's exact (utility, support), summed without rows, or ``None`` once
its utility exceeds the threshold. A depth-regime node holds the
ancestor's lazy chain (``chains.LazyChain``) and ``cols``, the ancestor
columns its pattern keeps, as extension does with its root's chain: a child
drops one column, a prune the marked ones. The chain answers whether the
rows projected onto ``cols`` total above the threshold (``exceeds_on``) and
which positions' frozen-prefix bounds do (``marked``, the same question on
``cols[:p]`` and each later column), and a node whose
projection of a drained chain is one row carries that row alone
(``LazyChain.view``). Each question reads only until it is decided, and
its answer is the full chain's, so the search takes the same path,
evaluates the same patterns in the same order and reports the same skips
and prunes as on fully built chains.

Each (pattern, position) node is expanded once per run, by whichever regime
reaches it first; the same node is reached again from other roots and other
removal orders, and on n copies of one item along all 2^n position subsets.
That is sound because both regimes at ``(s, p)`` search the same subtree,
every subsequence of ``s`` that keeps ``s[:p]``, and each regime is complete
for it under any valid lower-bound rows. A second visit, even with another
root's rows, could only repeat effects that are idempotent: first-wins
records and memoized evaluations. The node is the ``s`` that enters the call,
before ``_prune_item`` shrinks it.

The threshold, the store, the node memo (``miner_base.first_visit``), the
loop over the roots and its recursion headroom come from
``miner_base.RootSearch``, which the extension miner shares, and so does the
length cap's bound on the cursor: every pattern below ``(s, p)`` keeps
``s[:p]``, so no regime advances to ``p > max_len``. A root within
the threshold is searched by ``_shrinkage(root, 0)`` alone: that reaches
every removal product of the root, so a screened pass would repeat work.
"""

from __future__ import annotations

# ``column_bound`` and ``restrict_rows`` are not called here; they stay
# imported because the benchmark's tracer (perfbench/tracer.py) patches this
# module's names for them.
from .chains import LazyChain, column_bound, restrict_rows
from .miner_base import LuspRecord, LuspResult, RootSearch, first_visit
from .occurrence import UtilityCounter, build_bit_index
from .preprocess import build_max_non_con_seq_set
from .seqdb import MiningConfig, Pattern, QSequenceDatabase
from .shadow import MiningShadow


class _ShrinkMiner(RootSearch):
    def _index(self, db):
        return build_bit_index(db)

    def _roots(self):
        return build_max_non_con_seq_set(self.store, self.threshold).roots

    def _records(self):
        return [LuspRecord(p, u, s) for p, (u, s) in self._admitted.items()]

    def _mine_root(self, i: int) -> None:
        self._enter(self.roots[i], 0)

    def _enter(self, q: Pattern, p: int) -> None:
        """Evaluate the non-empty ``q``, record it if it is a result, and
        search below cursor ``p`` in the regime its utility calls for."""
        totals = self.store.evaluate(q)
        if totals is not None:
            if len(q) <= self.len_cap:
                self._admitted.setdefault(q, totals)
            if p < len(q):
                self._shrinkage(q, p)
        elif p < len(q):
            self._shrinkage_depth(q, self.store.tagged(q), tuple(range(len(q))), p)

    def _shrinkage(self, s: Pattern, p: int) -> None:
        """Exact regime at cursor ``p < len(s)``: keep position ``p``, then
        remove it."""
        if not first_visit(self._expanded, s, p):
            return
        if p + 1 < len(s) and p < self.len_cap:
            self._shrinkage(s, p + 1)
        if len(s) > 1:
            self._enter(s[:p] + s[p + 1 :], p)

    def _shrinkage_depth(
        self, s: Pattern, chain: LazyChain, cols: tuple, p: int
    ) -> None:
        """Depth regime at cursor ``p < len(s)``; ``chain`` is the chain of
        an ancestor whose utility exceeds the threshold, and ``cols`` the
        ancestor columns that ``s`` keeps."""
        if not first_visit(self._expanded, s, p):
            return
        chain, cols = chain.view(cols)
        s, cols, pruned = self._prune_item(s, chain, cols, p)
        if pruned and s and self._screen(s, chain, cols):
            # The survivor is itself a removal product (its marked positions
            # were deleted en masse), so it gets the same lower-bound-gated
            # evaluation a remove branch would apply; entered at its end, it
            # is not searched below, as the recursion here covers its subsets.
            self._enter(s, len(s))
        if p + 1 < len(s) and p < self.len_cap:
            self._shrinkage_depth(s, chain, cols, p + 1)
        if p >= len(s) or len(s) == 1:
            return
        q = s[:p] + s[p + 1 :]
        child = cols[:p] + cols[p + 1 :]
        if self._screen(q, chain, child):
            self._enter(q, p)
        elif p < len(q):
            self._shrinkage_depth(q, chain, child, p)

    def _screen(self, q: Pattern, chain: LazyChain, cols: tuple) -> bool:
        """Whether ``q`` is within the length cap and its lower bound, the
        sum of ``chain``'s rows projected onto ``cols``, within the
        threshold; a bound above it skips ``q``'s evaluation."""
        if len(q) > self.len_cap:
            return False
        if chain.exceeds_on(cols, self.threshold):
            if self.shadow is not None:
                self.shadow.sluspb_skip(q)
            return False
        return True

    def _prune_item(
        self, s: Pattern, chain: LazyChain, cols: tuple, p: int
    ) -> tuple[Pattern, tuple, bool]:
        marked = chain.marked(cols, p, self.threshold)
        if not marked:
            return s, cols, False
        if self.shadow is not None:
            for i in marked:
                self.shadow.sbips_prune(s, p, i)
        drop = set(marked)
        keep = [j for j in range(len(s)) if j not in drop]
        return tuple(s[j] for j in keep), tuple(cols[j] for j in keep), True


def mine_shrink(
    db: QSequenceDatabase,
    cfg: MiningConfig,
    counter: UtilityCounter | None = None,
    shadow: MiningShadow | None = None,
    threads: int = 1,
) -> LuspResult:
    """Mine the complete LUSP set by shrinkage; output equals the baseline's."""
    return _ShrinkMiner.mine(db, cfg, counter, shadow, threads)
