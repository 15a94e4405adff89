"""Extension miner: grow an accumulated prefix along each root's positions.

At every cursor position the search either drops the position (column deleted
from the carried chain) or appends its item to the accumulated pattern. An
appended prefix is admitted only while its restricted chain sum (the lower
bound LBS) stays within the threshold; once it exceeds it, nothing above that
prefix inside this root can be a result, so the whole subtree is cut.

The bound of a prefix depends on the root whose chain reaches it: one root can
admit a pattern that another root's chain bounds out. Admitted prefixes are
therefore only collected during the search, together with every prefix some
root cut, with the residual the cut covers. Once all roots are done, only the
candidates that lie in no root's cut subtree are evaluated; each cut's bound
is a lower bound on the true utility of every pattern in its subtree, so the
skipped ones cannot be results. Deferring the evaluation, rather than
skipping against the bounds seen so far, keeps the set of evaluated patterns
independent of the order of the roots.
"""

from __future__ import annotations

import sys

from .chains import ChainStore, TaggedRows, column_bound, restrict_rows
from .miner_base import LuspRecord, LuspResult
from .occurrence import UtilityCounter, build_bit_index, is_subsequence
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


class _ExtendMiner:
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
        self.store = ChainStore(db, build_bit_index(db), counter)
        self.shadow = shadow
        # Prefixes some root admitted, in first-admission order, and the cuts
        # of every root as cut prefix -> residuals; both are filled by the
        # search, read after it.
        self._candidates: dict[Pattern, None] = {}
        self._cuts: dict[Pattern, list[Pattern]] = {}

    def run(self) -> LuspResult:
        roots = build_max_non_con_seq_set(self.store, self.threshold).roots
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, RECURSION_HEADROOM))
        try:
            for root in roots:
                self._extension(root, self.store.tagged(root), 0)
        finally:
            sys.setrecursionlimit(limit)
        records = []
        for q in self._candidates:
            if self._in_cut_subtree(q):
                if self.shadow is not None:
                    self.shadow.sluspb_skip(q)
                continue
            utility, support = self.store.evaluate(q)
            if utility <= self.threshold:
                records.append(LuspRecord(q, utility, support))
        return LuspResult.from_records(records, self.min_util, self.max_len)

    def _len_ok(self, pattern: Pattern) -> bool:
        return self.max_len is None or len(pattern) <= self.max_len

    def _in_cut_subtree(self, q: Pattern) -> bool:
        """Whether some cut (P, R) covers ``q``: ``q = P + r`` with ``r`` a
        subsequence of ``R``. Each distinct P-embedding among the cut's rows
        extends to a distinct embedding of ``P + r`` and utilities are
        positive, so the cut's bound is a lower bound on ``q``'s utility."""
        for k in range(1, len(q) + 1):
            residuals = self._cuts.get(q[:k])
            if residuals is not None:
                rest = q[k:]
                if any(is_subsequence(rest, r) for r in residuals):
                    return True
        return False

    def _extension(self, s: Pattern, rows: TaggedRows, q_len: int) -> None:
        p = q_len
        if p >= len(s):
            return
        # Drop the cursor position for the whole subtree.
        self._extension(
            s[:p] + s[p + 1 :],
            restrict_rows(rows, [*range(p), *range(p + 1, len(s))]),
            q_len,
        )
        # Append it to the accumulated prefix.
        lbs = column_bound(rows, range(p + 1))
        if lbs > self.threshold:
            self._cuts.setdefault(s[: p + 1], []).append(s[p + 1 :])
            if self.shadow is not None:
                self.shadow.ebisps_cut(s[: p + 1], s[p + 1 :])
            return
        self._extension(s, rows, p + 1)
        q = s[: p + 1]
        if self._len_ok(q):
            self._candidates[q] = None


def mine_extend(
    db: QSequenceDatabase,
    cfg: MiningConfig,
    counter: UtilityCounter | None = None,
    shadow: MiningShadow | None = None,
    threads: int = 1,
) -> LuspResult:
    """Mine the complete LUSP set by extension; output equals the baseline's."""
    # ``threads`` is kept only for perfbench/bench.py's ``threads=1`` call.
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    return _ExtendMiner(db, cfg, counter, shadow).run()
