"""Outside-in tracer for the luspm miners.

Spans are recorded around calls into each layer by replacing the names the
miners call through, never by editing the package:

- ``restrict_rows``, ``column_bound``, ``build_bit_index`` and
  ``build_max_non_con_seq_set`` where the miners imported them
  (``luspm.miner_shrink`` and ``luspm.miner_extend``);
- ``enumerate_embeddings`` where ``ChainStore`` looks it up
  (``luspm.chains``);
- the ``ChainStore.tagged`` and ``ChainStore.evaluate`` class attributes. A
  ``tagged`` call is a chain build when the store's counter moved during it,
  otherwise a memo lookup.

Pruning events come from a counting ``MiningShadow``. Spans are aggregated in
memory per (parent, name) edge, which keeps memory flat however many calls a
run makes, and are written out when the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from luspm import MiningShadow, chains, miner_extend, miner_shrink
from luspm.chains import ChainStore

ROOT = "run"


class Tracer:
    def __init__(self):
        # (parent, name) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = [[ROOT, 0.0]]  # [name, child seconds]

    def begin(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return time.perf_counter()

    def end(self, t0: float, name: str | None = None) -> None:
        """Close the innermost span; ``name`` renames it if given."""
        elapsed = time.perf_counter() - t0
        frame_name, child = self._stack.pop()
        parent = self._stack[-1]
        parent[1] += elapsed
        edge = self.edges.setdefault((parent[0], name or frame_name), [0, 0.0, 0.0])
        edge[0] += 1
        edge[1] += elapsed
        edge[2] += elapsed - child

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def total(self, name: str) -> float:
        return sum(e[1] for (_, n), e in self.edges.items() if n == name)

    def self_time(self, name: str) -> float:
        return sum(e[2] for (_, n), e in self.edges.items() if n == name)

    def report(self) -> list[str]:
        """One line per (parent, name) edge, largest self time first."""
        lines = []
        for (parent, name), (n, total, own) in sorted(
            self.edges.items(), key=lambda kv: -kv[1][2]
        ):
            lines.append(
                f"span {parent} > {name}: calls={n} total_s={total:.6f} self_s={own:.6f}"
            )
        return lines

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(t0)

        return wrapper


class CountingShadow(MiningShadow):
    """Counts every pruning event the miners report."""

    def __init__(self, counts: Counter):
        self.counts = counts

    def sluspb_skip(self, pattern) -> None:
        self.counts["miner_shrink.lb_skips"] += 1

    def sbips_prune(self, sequence, removed_index, position) -> None:
        self.counts["miner_shrink.prefix_prunes"] += 1

    def ebisps_cut(self, accumulated, residual) -> None:
        self.counts["miner_extend.cuts"] += 1


def _restrict(tracer: Tracer, fn):
    def restrict_rows(rows, keep):
        t0 = tracer.begin("chains.restrict")
        try:
            out = fn(rows, keep)
        finally:
            tracer.end(t0)
        tracer.counts["chains.restrict_rows_in"] += len(rows)
        tracer.counts["chains.restrict_rows_out"] += len(out)
        return out

    return restrict_rows


def _roots(tracer: Tracer, fn):
    def build_max_non_con_seq_set(*args, **kwargs):
        t0 = tracer.begin("preprocess.roots")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(t0)
        tracer.counts["preprocess.roots"] += len(out.roots)
        return out

    return build_max_non_con_seq_set


def _embeddings(tracer: Tracer, fn):
    def enumerate_embeddings(*args, **kwargs):
        t0 = tracer.begin("occurrence.embed")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(t0)
        tracer.counts["occurrence.rows"] += len(out)
        tracer.counts["occurrence.yielding_sequences"] += bool(out)
        return out

    return enumerate_embeddings


def _tagged(tracer: Tracer, fn):
    def tagged(store, pattern):
        before = store.counter.count
        t0 = tracer.begin("chains.tagged")
        try:
            return fn(store, pattern)
        finally:
            built = store.counter.count != before
            tracer.end(t0, "chains.build" if built else "chains.lookup")

    return tagged


@contextmanager
def patched(tracer: Tracer):
    """Route the miners' layer calls through ``tracer`` for the duration.

    Every replaced attribute is put back on exit, and the exit raises unless
    each one is again, by identity, the original object.
    """
    saved = []

    def patch(owner, name, make_wrapper):
        original = vars(owner)[name]
        saved.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    try:
        for module in (miner_shrink, miner_extend):
            patch(module, "restrict_rows", lambda f: _restrict(tracer, f))
            patch(module, "column_bound", lambda f: tracer.span("chains.bound", f))
            patch(module, "build_bit_index", lambda f: tracer.span("occurrence.index", f))
            patch(module, "build_max_non_con_seq_set", lambda f: _roots(tracer, f))
        patch(chains, "enumerate_embeddings", lambda f: _embeddings(tracer, f))
        patch(ChainStore, "tagged", lambda f: _tagged(tracer, f))
        patch(ChainStore, "evaluate", lambda f: tracer.span("chains.evaluate", f))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        for owner, name, original in saved:
            if vars(owner)[name] is not original:
                raise RuntimeError(f"{owner.__name__}.{name} was not restored")

