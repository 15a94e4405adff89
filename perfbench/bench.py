"""Benchmark of the luspm miners on one workload.

``--trace 0`` measures what a user of the miners sees: the time to load the
database (``setup_s``), the wall time of one call of each miner, its utility
computations and its peak memory. ``--trace 1`` repeats rounds of one
untraced and one traced call of each miner for the same time and reports the
per-layer breakdown, each metric as its median over rounds (see
``tracer.py``).

Timings run with tracemalloc off, one miner at a time, in this one process,
with ``threads=1``. Set-up and the miners take turns for the whole run, so a
slow spell of a shared host touches them alike, and each timing metric is
the median of its samples. The sample count, the fastest sample and the
highest percentile with ten samples beyond it are printed as well.
Peak memory comes from a separate pass under tracemalloc
(peak minus the allocation at its start, as ``luspm.harness.run_once``
defines it), and no timing is taken during that pass.

Every mine call is checked. The first result must match the workload's
recorded pattern count and digest; every later result, of any miner, must
equal it, and a miner's utility-computation count must not change from call
to call. A call that raises or disagrees counts as failed; any failure makes
``correct`` false and the exit code 1.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc

from luspm import (
    UtilityCounter,
    mine_baseline,
    mine_extend,
    mine_shrink,
    run_once,
    sample_database,
)
from tracer import CountingShadow, Tracer, patched
from workloads import WORKLOADS, Instance, canonical_digest, make_instance

ALGOS = ("base", "shrink", "extend")
MIB = 2**20
# Within a round, each turn (set-up, then each miner) repeats until this much
# wall time has passed, so fast work still gets enough samples.
MIN_TURN_S = 0.2
# One set-up sample is a batch of loads lasting about this long, so a tiny
# database is loaded many times per sample.
SETUP_BATCH_S = 0.002
# Sequences sampled from the sparse workload for the harness fidelity probe.
HARNESS_SAMPLE = 50


def mine(algo, db, cfg, counter, shadow=None):
    if algo == "base":
        return mine_baseline(db, cfg, counter)
    miner = mine_shrink if algo == "shrink" else mine_extend
    return miner(db, cfg, counter, shadow, threads=1)


class Gate:
    """Runs mine calls and checks each one against a single reference."""

    def __init__(self, instance: Instance, expected, mine=mine):
        self.instance = instance
        self.expected = expected
        self.mine = mine
        self.reference: set | None = None
        self.ucomp: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"FAILED: {why}", file=sys.stderr)

    def call(self, algo, db, shadow=None, memory=False, mine=None):
        """One mine call. Returns (seconds, peak bytes), peak 0 unless
        ``memory``, or None if the call raised or its result disagreed."""
        self.attempted += 1
        counter = UtilityCounter()
        gc.collect()
        if memory:
            tracemalloc.start()
            start = tracemalloc.get_traced_memory()[0]
        peak = 0
        t0 = time.perf_counter()
        try:
            result = (mine or self.mine)(algo, db, self.instance.cfg, counter, shadow)
        except Exception as exc:  # a failed call is counted, not fatal
            self.fail(f"{algo} raised {exc!r}")
            return None
        finally:
            elapsed = time.perf_counter() - t0
            if memory:
                peak = tracemalloc.get_traced_memory()[1] - start
                tracemalloc.stop()
        if not self._agrees(algo, result.as_set(), counter.count):
            return None
        return elapsed, peak

    def _agrees(self, algo, found: set, ucomp: int) -> bool:
        if self.reference is None:
            got = canonical_digest(found, self.instance.rename)
            if self.expected is not None and got != self.expected:
                self.fail(f"{algo} gave {got}, expected {self.expected}")
                return False
            self.reference = found
        elif found != self.reference:
            self.fail(f"{algo} result differs from the reference")
            return False
        if self.ucomp.setdefault(algo, ucomp) != ucomp:
            self.fail(f"{algo} made {ucomp} utility computations, earlier {self.ucomp[algo]}")
            return False
        return True


def load_seconds(instance: Instance, batch: int) -> float:
    """Seconds per load of the instance's texts, over one batch of loads."""
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(batch):
        instance.load()
    return (time.perf_counter() - t0) / batch


def timed_rounds(gate: Gate, db, seconds: float) -> dict[str, list[float]]:
    """Round-robin over set-up and the miners until ``seconds`` have passed
    (at least one round). Each turn repeats its sample until MIN_TURN_S of
    wall time has passed. Set-up samples are load batches lasting about
    SETUP_BATCH_S; miner samples are single calls."""
    batch = max(1, round(SETUP_BATCH_S / load_seconds(gate.instance, 1)))
    samples: dict[str, list[float]] = {"setup": [], **{algo: [] for algo in ALGOS}}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for name, values in samples.items():
            turn_end = time.perf_counter() + MIN_TURN_S
            while True:
                if name == "setup":
                    values.append(load_seconds(gate.instance, batch))
                else:
                    out = gate.call(name, db)
                    if out is None:
                        break
                    values.append(out[0])
                if time.perf_counter() >= turn_end:
                    break
        rounds += 1
    return samples


def summary(samples: list[float]) -> str:
    """Sample count, fastest sample, median, and the highest percentile with
    ten samples beyond it (the maximum when there are too few)."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = f"max={ordered[-1]:.6f}" if n <= 10 else f"p{100 * (n - 10) // n}={ordered[n - 11]:.6f}"
    return f"{n} samples, min={ordered[0]:.6f} median={statistics.median(ordered):.6f} {tail}"


def end_to_end(gate: Gate, seconds: float):
    """The memory pass, then timed rounds for the rest of ``seconds``."""
    start = time.perf_counter()
    db = gate.instance.load()
    peaks = {}
    for algo in ALGOS:
        out = gate.call(algo, db, memory=True)
        if out is not None:
            peaks[algo] = out[1] / MIB
    samples = timed_rounds(gate, db, seconds - (time.perf_counter() - start))

    setup = samples["setup"]
    metrics = {"setup_s": (statistics.median(setup), "s")}
    lines = [f"setup_s: {summary(setup)}"]
    for algo in ALGOS:
        if samples[algo]:
            metrics[f"{algo}_s"] = (statistics.median(samples[algo]), "s")
            lines.append(f"{algo}_s: {summary(samples[algo])}")
    for algo in ("shrink", "extend"):
        if algo in gate.ucomp:
            metrics[f"{algo}_ucomp"] = (gate.ucomp[algo], "count")
    for algo, peak in peaks.items():
        metrics[f"{algo}_peak_mib"] = (peak, "MiB")
    return metrics, lines


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(algo: str, tracer: Tracer, ucomp: int, db_len: int) -> dict:
    t, c = tracer, tracer.counts
    if algo == "base":
        return {
            "base.miner_base.s": (t.total("miner_base"), "s"),
            "base.miner_base.candidates": (ucomp, "count"),
        }
    builds = t.calls("chains.build")
    lookups = builds + t.calls("chains.lookup")
    m = {
        "chains.build_s": (t.total("chains.build"), "s"),
        "chains.builds": (builds, "count"),
        "chains.scan_yield": (_ratio(c["occurrence.yielding_sequences"], builds * db_len), "ratio"),
        "chains.bound_s": (t.total("chains.bound"), "s"),
        "chains.bound_calls": (t.calls("chains.bound"), "count"),
        "chains.restrict_s": (t.total("chains.restrict"), "s"),
        "chains.restrict_calls": (t.calls("chains.restrict"), "count"),
        "chains.restrict_keep_ratio": (
            _ratio(c["chains.restrict_rows_out"], c["chains.restrict_rows_in"]),
            "ratio",
        ),
        "chains.evaluate_s": (t.self_time("chains.evaluate"), "s"),
        "chains.evaluate_calls": (t.calls("chains.evaluate"), "count"),
        "chains.lookups": (lookups, "count"),
        "chains.memo_hit_ratio": (_ratio(lookups - builds, lookups), "ratio"),
        "occurrence.embed_s": (t.total("occurrence.embed"), "s"),
        "occurrence.embed_calls": (t.calls("occurrence.embed"), "count"),
        "occurrence.index_s": (t.total("occurrence.index"), "s"),
        "occurrence.rows": (c["occurrence.rows"], "count"),
        "preprocess.roots_s": (t.total("preprocess.roots"), "s"),
        "preprocess.roots": (c["preprocess.roots"], "count"),
        f"miner_{algo}.self_s": (t.self_time(f"miner_{algo}"), "s"),
    }
    if algo == "shrink":
        m["miner_shrink.lb_skips"] = (c["miner_shrink.lb_skips"], "count")
        m["miner_shrink.prefix_prunes"] = (c["miner_shrink.prefix_prunes"], "count")
    else:
        m["miner_extend.cuts"] = (c["miner_extend.cuts"], "count")
    return {f"{algo}.{name}": value for name, value in m.items()}


def harness_fidelity(gate: Gate, sample, cfg) -> float:
    """run_once's reported runtime over the untraced wall time of the same
    shrink call, on a sample of the sparse workload."""
    gc.collect()
    t0 = time.perf_counter()
    plain = mine_shrink(sample, cfg, threads=1)
    wall = time.perf_counter() - t0
    result, report = run_once(sample, cfg, "shrink")
    gate.attempted += 2
    if report.status != "ok" or result.as_set() != plain.as_set():
        gate.fail("run_once disagrees with a direct mine_shrink call")
    return report.runtime_ms / 1000.0 / wall


def traced_round(gate: Gate, harness_db, harness_cfg):
    """One load, one untraced and one traced call of each miner, and one
    harness probe. Returns this round's per-layer metrics and span report."""
    t0 = time.perf_counter()
    db = gate.instance.load()
    metrics = {"seqdb.parse_s": (time.perf_counter() - t0, "s")}
    lines = []
    for algo in ALGOS:
        plain = gate.call(algo, db)
        tracer = Tracer()
        with patched(tracer):
            traced = gate.call(
                algo,
                db,
                shadow=CountingShadow(tracer.counts),
                mine=tracer.span(f"miner_{algo}", gate.mine),
            )
        if plain is None or traced is None:
            continue
        ucomp = gate.ucomp[algo]
        layers = layer_metrics(algo, tracer, ucomp, len(db))
        if algo != "base" and layers[f"{algo}.chains.builds"][0] != ucomp:
            gate.fail(f"{algo}: traced chain builds differ from {ucomp} utility computations")
        metrics.update(layers)
        metrics[f"{algo}.trace.overhead"] = (traced[0] / plain[0], "ratio")
        lines += [f"{algo} {line}" for line in tracer.report()]
    metrics["harness.reported_over_wall"] = (
        harness_fidelity(gate, harness_db, harness_cfg),
        "ratio",
    )
    return metrics, lines


def layer_breakdown(gate: Gate, sparse: Instance, seed: int, seconds: float):
    """Traced rounds until ``seconds`` have passed (at least one). Each
    metric is the median over rounds; the span report is the first round's."""
    full = sparse.load()
    harness_db = sample_database(full, min(HARNESS_SAMPLE, len(full)), seed)
    samples: dict[str, tuple[list, str]] = {}
    lines: list[str] = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        metrics, report = traced_round(gate, harness_db, sparse.cfg)
        for name, (value, unit) in metrics.items():
            samples.setdefault(name, ([], unit))[0].append(value)
        lines = lines or report
        rounds += 1
    lines.append(f"traced rounds: {rounds}")
    return {n: (statistics.median(v), u) for n, (v, u) in samples.items()}, lines


def main(argv=None, mine=mine, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads[args.workload]
    gate = Gate(make_instance(workload, args.seed), workload.expected, mine)
    if args.trace:
        sparse = make_instance(workloads["sparse"], args.seed)
        metrics, lines = layer_breakdown(gate, sparse, args.seed, args.seconds)
    else:
        metrics, lines = end_to_end(gate, args.seconds)

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(f"patterns = {len(gate.reference or ())}")
    print(f"failed_frac = {gate.failed / max(1, gate.attempted)}")
    print(
        json.dumps(
            {
                "correct": gate.failed == 0,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if gate.failed == 0 else 1
