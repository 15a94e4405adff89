"""Extension miner: grow an accumulated prefix along each root's positions.

At every cursor position the search either drops the position (column deleted
from the carried chain) or appends its item to the accumulated pattern. An
appended prefix is admitted only while its restricted chain sum (the lower
bound LBS) stays within the threshold; once it exceeds it, nothing above that
prefix inside this root can be a result, so the whole subtree is cut.

The bound of a prefix depends on the root whose chain reaches it: one root can
admit a pattern that another root's chain bounds out. Admitted prefixes are
therefore only collected during the search, together with every prefix some
root bounded out. Once all roots are done, only the candidates that no root
bounded out are evaluated; each bound is a lower bound on the true utility,
so the skipped ones cannot be results. Deferring the evaluation, rather than
skipping against the bounds seen so far, keeps the set of evaluated patterns
independent of the order of the roots.
"""

from __future__ import annotations

import sys

from .chains import ChainStore, TaggedRows, column_bound, restrict_rows
from .miner_base import LuspRecord, LuspResult
from .occurrence import UtilityCounter, build_bit_index
from .preprocess import build_max_non_con_seq_set
from .seqdb import MiningConfig, Pattern, QSequenceDatabase, resolve_min_util
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
        self.max_len = cfg.max_len
        self.store = ChainStore(db, build_bit_index(db), counter)
        self.shadow = shadow
        # Prefixes some root admitted, in first-admission order, and prefixes
        # some root bounded out; both are filled by the search, read after it.
        self._candidates: dict[Pattern, None] = {}
        self._bounded: set[Pattern] = set()

    def run(self) -> LuspResult:
        roots = build_max_non_con_seq_set(self.store, self.min_util).roots
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, RECURSION_HEADROOM))
        try:
            for root in roots:
                self._extension(root, self.store.tagged(root), 0)
        finally:
            sys.setrecursionlimit(limit)
        records = []
        for q in self._candidates:
            if q in self._bounded:
                if self.shadow is not None:
                    self.shadow.sluspb_skip(q)
                continue
            utility, support = self.store.evaluate(q)
            if utility <= self.min_util:
                records.append(LuspRecord(q, utility, support))
        return LuspResult.from_records(records, self.min_util, self.max_len)

    def _len_ok(self, pattern: Pattern) -> bool:
        return self.max_len is None or len(pattern) <= self.max_len

    def _extension(self, s: Pattern, rows: TaggedRows, q_len: int) -> None:
        p = q_len
        if p >= len(s):
            return
        # Drop the cursor position for the whole subtree.
        self._extension(
            s[:p] + s[p + 1 :],
            restrict_rows(rows, [c for c in range(len(s)) if c != p]),
            q_len,
        )
        # Append it to the accumulated prefix.
        lbs = column_bound(rows, range(p + 1))
        if lbs > self.min_util:
            self._bounded.add(s[: p + 1])
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
