"""Extension miner: grow an accumulated prefix along each root's positions.

At every cursor position the search either drops the position (column deleted
from the carried chain) or appends its item to the accumulated pattern. An
appended prefix is admitted only while its restricted chain sum (the lower
bound LBS) stays within the threshold; once it exceeds it, nothing above that
prefix inside this root can be a result, so the whole subtree is cut.

The search has two regimes, chosen per node by the total of the rows it
carries. Utilities are strictly positive and restriction deduplicates rows,
so every bound in a node's subtree, prefix bound or restricted total, is at
most that total: the bounds are monotone down the tree.

- Above the threshold (``_extension``), the node carries its rows, computes
  each prefix bound and cuts where one exceeds the threshold. This regime
  alone makes cuts; it is not memoized. Most such nodes carry one row, and
  one row cannot collapse under restriction: the restricted row is the
  row's utility tuple with the dropped entries removed. So a one-row node
  (``_extension_row``) carries only that tuple, its total and the running
  sum ``head`` of its entries before the cursor. Dropping position ``p``
  takes ``u[p]`` off the total and out of the tuple; appending it gives the
  prefix bound ``head + u[p]``. These are the values the kernels compute on
  the row, exactly, so the walk makes the same cuts and admissions. A
  multi-row node hands off to it once a restriction leaves one row.
- Within the threshold (``_admit_all``), no bound below the node can exceed
  the threshold, so the subtree makes no cut and admits every ``s[:p] + r``,
  ``r`` a non-empty subsequence of ``s[p:]``. The walk keeps the rows
  regime's drop, append, record order but carries no rows. Each
  ``(pattern, cursor)`` node is expanded once per run (``first_visit``): what
  it admits depends on ``(s, p)`` alone, so a repeat visit, from another
  root or another drop order, would only re-admit candidates the first visit
  already added, and a node in this regime records no cuts. n copies of one
  item cost about n²/2 admission nodes, not 2^n.

Every prefix below cursor ``p`` is longer than ``p``, so no regime advances
its cursor to ``p >= max_len``: a length cap bounds the walk, not only the
output, and every cut made is within it.

The bound of a prefix depends on the root whose chain reaches it: one root can
admit a pattern that another root's chain bounds out. Admitted prefixes are
therefore only collected during the search, together with every prefix some
root cut, with the residual the cut covers: a suffix of that root, kept as
the root's index and the suffix's start (see ``_cut``): one packed int while
only one root has cut the prefix, as most prefixes are, and a flat list of
int pairs from the second root on. Once all roots are done, only the
candidates that lie in no root's cut subtree are evaluated;
each cut's bound is a lower bound on the true utility of every pattern in its
subtree, so the skipped ones cannot be results. Deferring the evaluation,
rather than skipping against the bounds seen so far, keeps the set of
evaluated patterns independent of the order of the roots. ``_records``
filters, releases, then evaluates: it first filters the admitted candidates
against the cuts, then drops the cut store, the node memo and the admitted
prefixes, and only then evaluates the uncovered candidates in admission
order, so the chains the evaluation creates never coexist with the search's
state. The store evaluates a candidate
against the threshold without building its rows, stopping once its utility
exceeds it (see ``chains``).

The threshold, the length cap, the store, the node memo, the loop over the
roots and its recursion headroom come from ``miner_base.RootSearch``, as in
shrinkage.
"""

from __future__ import annotations

from .chains import TaggedRows, column_bound, restrict_rows, rows_total
from .miner_base import LuspRecord, LuspResult, RootSearch, first_visit
from .occurrence import UtilityCounter, build_bit_index, is_subsequence
from .preprocess import build_max_non_con_seq_set
from .seqdb import MiningConfig, Pattern, QSequenceDatabase
from .shadow import MiningShadow

# A cut entry held by one root packs the root index above the residual start;
# a start is a position in a root, so it is below 2**32.
_SHIFT = 32
_START = (1 << _SHIFT) - 1


class _ExtendMiner(RootSearch):
    def __init__(self, *args):
        super().__init__(*args)
        # The cuts of every root, as cut prefix -> entry, at most one
        # (root index, residual start) pair per root (see ``_cut``). They and
        # the admitted prefixes are filled by the search, read after it and
        # then released (see ``_records``).
        self._cuts: dict[Pattern, int | list[int]] = {}
        # The index in ``roots`` of the root being searched.
        self._root = 0

    def _index(self, db):
        return build_bit_index(db)

    def _roots(self):
        return build_max_non_con_seq_set(self.store, self.threshold).roots

    def _mine_root(self, i: int) -> None:
        self._root = i
        root = self.roots[i]
        chain = self.store.tagged(root)
        self._descend(root, chain.full(), 0, chain.total)

    def _records(self):
        """Filter the admitted candidates against the cuts, release the
        search's state, then evaluate the uncovered candidates in admission
        order."""
        uncovered = []
        for q in self._admitted:
            if not self._in_cut_subtree(q):
                uncovered.append(q)
            elif self.shadow is not None:
                self.shadow.sluspb_skip(q)
        self._cuts = self._expanded = self._admitted = None
        records = []
        for q in uncovered:
            totals = self.store.evaluate(q)
            if totals is not None:
                records.append(LuspRecord(q, *totals))
        return records

    def _in_cut_subtree(self, q: Pattern) -> bool:
        """Whether some cut (P, R) covers ``q``: ``q = P + r`` with ``r`` a
        subsequence of ``R``. Each distinct P-embedding among the cut's rows
        extends to a distinct embedding of ``P + r`` and utilities are
        positive, so the cut's bound is a lower bound on ``q``'s utility."""
        roots = self.roots
        for k in range(1, len(q) + 1):
            entry = self._cuts.get(q[:k])
            if entry is None:
                continue
            rest = q[k:]
            if type(entry) is int:
                if is_subsequence(rest, roots[entry >> _SHIFT][entry & _START :]):
                    return True
                continue
            pairs = iter(entry)
            for i, start in zip(pairs, pairs):
                if is_subsequence(rest, roots[i][start:]):
                    return True
        return False

    def _descend(self, s: Pattern, rows: TaggedRows, p: int, total) -> None:
        """Search below cursor ``p`` of ``s`` in the regime its carried
        ``rows``, which sum to ``total``, call for."""
        if total <= self.threshold:
            self._admit_all(s, p)
        elif len(rows) == 1:
            util = rows[0][2]
            self._extension_row(s, util, p, total, sum(util[:p]))
        else:
            self._extension(s, rows, p)

    def _extension(self, s: Pattern, rows: TaggedRows, p: int) -> None:
        """Rows regime at cursor ``p`` for two or more carried rows, whose
        total is above the threshold."""
        if p + 1 < len(s):
            # Drop the cursor position for the whole subtree.
            child = restrict_rows(rows, [*range(p), *range(p + 1, len(s))])
            self._descend(s[:p] + s[p + 1 :], child, p, rows_total(child))
        # Append it to the accumulated prefix.
        if column_bound(rows, range(p + 1)) > self.threshold:
            self._cut(s, p)
            return
        if p + 1 < len(s) and p + 1 < self.len_cap:
            self._extension(s, rows, p + 1)
        self._admitted.setdefault(s[: p + 1])

    def _extension_row(self, s: Pattern, util: tuple, p: int, total, head) -> None:
        """Rows regime at cursor ``p`` for one carried row with utilities
        ``util``, whose sum ``total`` is above the threshold and whose first
        ``p`` entries sum to ``head``. One row cannot collapse under
        restriction, so dropping position ``p`` takes ``util[p]`` off the
        total and appending it adds ``util[p]`` to the prefix bound."""
        if p + 1 < len(s):
            t = s[:p] + s[p + 1 :]
            child_total = total - util[p]
            if child_total <= self.threshold:
                self._admit_all(t, p)
            else:
                self._extension_row(t, util[:p] + util[p + 1 :], p, child_total, head)
        bound = head + util[p]
        if bound > self.threshold:
            self._cut(s, p)
            return
        if p + 1 < len(s) and p + 1 < self.len_cap:
            self._extension_row(s, util, p + 1, total, bound)
        self._admitted.setdefault(s[: p + 1])

    def _cut(self, s: Pattern, p: int) -> None:
        """Record that the prefix ``s[:p + 1]`` bounds out its subtree, every
        subsequence of the residual ``s[p + 1:]`` appended to it.

        The search drops positions only at its cursor, so every position
        dropped so far lies before ``p`` and the residual is the suffix of
        the root from ``len(root) - len(s) + p + 1`` on. A cut is stored as
        that start, beside its root's index, and no residual is built unless
        the shadow is told of the cut. Of two cuts of one
        prefix from one root, the one starting earlier has a residual that
        holds the other's, so only the smallest start is kept.

        Most prefixes are cut from one root only, and their entry is the one
        int ``root << _SHIFT | start``. A cut from a second root turns it
        into the flat list ``[root, start, root, start, ...]`` of small ints.
        Roots are searched one after another, so the pair for the current
        root, if there is one, is the last of its prefix's list.

        The cursor never reaches the length cap, so no cut prefix is longer
        than ``max_len`` and every cut is stored.
        """
        if self.shadow is not None:
            self.shadow.ebisps_cut(s[: p + 1], s[p + 1 :])
        prefix = s[: p + 1]
        root = self._root
        start = len(self.roots[root]) - len(s) + p + 1
        entry = self._cuts.get(prefix)
        if entry is None:
            self._cuts[prefix] = root << _SHIFT | start
        elif type(entry) is int:
            if entry >> _SHIFT != root:
                self._cuts[prefix] = [entry >> _SHIFT, entry & _START, root, start]
            elif start < entry & _START:
                self._cuts[prefix] = root << _SHIFT | start
        elif entry[-2] != root:
            entry += (root, start)
        elif start < entry[-1]:
            entry[-1] = start

    def _admit_all(self, s: Pattern, p: int) -> None:
        """Row-free regime at cursor ``p``: admit every ``s[:p] + r`` within
        the length cap, in ``_extension``'s order, once per ``(s, p)``."""
        if not first_visit(self._expanded, s, p):
            return
        if p + 1 < len(s):
            self._admit_all(s[:p] + s[p + 1 :], p)
            if p + 1 < self.len_cap:
                self._admit_all(s, p + 1)
        self._admitted.setdefault(s[: p + 1])


def mine_extend(
    db: QSequenceDatabase,
    cfg: MiningConfig,
    counter: UtilityCounter | None = None,
    shadow: MiningShadow | None = None,
    threads: int = 1,
) -> LuspResult:
    """Mine the complete LUSP set by extension; output equals the baseline's."""
    return _ExtendMiner.mine(db, cfg, counter, shadow, threads)
