"""Instrumented runner: single runs, parameter sweeps and database sampling.

Runtime comes from a call with tracemalloc off (``timed_run``). Peak memory
comes from a second call of the same miner under tracemalloc (``run_once``
makes both): the delta of Python's tracked allocations from that call's
start, not OS RSS, so numbers are reproducible across machines. Everything
except durations and memory is deterministic.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import random
import time
import tracemalloc
from dataclasses import dataclass, replace

from .errors import CandidateCapExceeded
from .miner_base import LuspResult, mine_baseline
from .miner_extend import mine_extend
from .miner_shrink import mine_shrink
from .occurrence import UtilityCounter
from .seqdb import (
    MiningConfig,
    QSequenceDatabase,
    resolve_min_util,
    serialize_spmf,
    serialize_utility_table,
)

ALGORITHMS = ("base", "shrink", "extend")

METRICS_HEADER = (
    "algo,dataset_hash,min_util,max_len,patterns,"
    "utility_computations,runtime_ms,peak_bytes,status"
)


@dataclass(frozen=True)
class MetricsReport:
    algo: str
    dataset_hash: str
    min_util: str
    max_len: int | None
    patterns: int
    utility_computations: int
    runtime_ms: float
    peak_bytes: int
    status: str

    def csv_row(self) -> str:
        max_len = "" if self.max_len is None else str(self.max_len)
        return (
            f"{self.algo},{self.dataset_hash},{self.min_util},{max_len},"
            f"{self.patterns},{self.utility_computations},"
            f"{self.runtime_ms:.3f},{self.peak_bytes},{self.status}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """Parameter grid for a sweep: thresholds x length caps x sample sizes,
    each point repeated ``repetitions`` times."""

    min_utils: tuple = ()
    sigmas: tuple = ()
    max_lens: tuple = (None,)
    sample_sizes: tuple = (None,)
    repetitions: int = 1

    def __post_init__(self):
        if not self.min_utils and not self.sigmas:
            raise ValueError("sweep needs min_utils or sigmas")
        if self.min_utils and self.sigmas:
            raise ValueError("give min_utils or sigmas, not both")
        if not self.max_lens or not self.sample_sizes:
            raise ValueError("max_lens and sample_sizes must be non-empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    def configs(self):
        thresholds = self.min_utils or self.sigmas
        for value in thresholds:
            for max_len in self.max_lens:
                if self.min_utils:
                    yield MiningConfig(min_util=value, max_len=max_len)
                else:
                    yield MiningConfig(sigma=value, max_len=max_len)


def dataset_fingerprint(db: QSequenceDatabase) -> str:
    payload = serialize_spmf(db.sequences) + serialize_utility_table(db.utilities)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def sample_database(db: QSequenceDatabase, n: int, seed: int) -> QSequenceDatabase:
    """Deterministic n-sequence sample; contents and utility table preserved."""
    if not 1 <= n <= len(db):
        raise ValueError(f"sample size {n} out of range 1..{len(db)}")
    rng = random.Random(seed)
    picked = rng.sample(range(len(db.sequences)), n)
    sequences = tuple(db.sequences[i] for i in sorted(picked))
    return QSequenceDatabase(sequences, db.utilities)


def _mine(db, cfg, algorithm, counter):
    if algorithm == "base":
        return mine_baseline(db, cfg, counter)
    miner = mine_shrink if algorithm == "shrink" else mine_extend
    return miner(db, cfg, counter)


def _peak_bytes(db, cfg, algorithm) -> int:
    """Peak traced allocation of one more call, above its starting level.

    The call starts from a collected heap: a full collection empties
    CPython's free lists, whose parked objects tracemalloc counts as
    allocated, so the peak does not depend on what ran before. Tracing a
    caller already started is left running.
    """
    gc.collect()
    started_tracing = not tracemalloc.is_tracing()
    if started_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base_current = tracemalloc.get_traced_memory()[0]
        _mine(db, cfg, algorithm, None)
        return max(0, tracemalloc.get_traced_memory()[1] - base_current)
    finally:
        if started_tracing:
            tracemalloc.stop()


def timed_run(
    db: QSequenceDatabase,
    cfg: MiningConfig,
    algorithm: str,
    dataset_hash: str | None = None,
) -> tuple[LuspResult | None, MetricsReport]:
    """Run one miner once, untraced, and report that run with a peak of 0.

    The result, runtime and utility computations come from the one call. A
    baseline candidate-cap abort is reported as status ``cap_exceeded``
    rather than raised. The report's ``dataset_hash`` is ``dataset_hash``
    when given, so a caller that runs one database many times hashes it
    once; otherwise it is computed here.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    counter = UtilityCounter()
    if dataset_hash is None:
        dataset_hash = dataset_fingerprint(db)

    t0 = time.perf_counter()
    status = "ok"
    result: LuspResult | None = None
    try:
        result = _mine(db, cfg, algorithm, counter)
    except CandidateCapExceeded:
        status = "cap_exceeded"
    runtime_ms = (time.perf_counter() - t0) * 1000.0

    report = MetricsReport(
        algo=algorithm,
        dataset_hash=dataset_hash,
        min_util=str(resolve_min_util(cfg, db)),
        max_len=cfg.max_len,
        patterns=0 if result is None else len(result),
        utility_computations=counter.count,
        runtime_ms=runtime_ms,
        peak_bytes=0,
        status=status,
    )
    return result, report


def run_once(
    db: QSequenceDatabase,
    cfg: MiningConfig,
    algorithm: str,
    dataset_hash: str | None = None,
) -> tuple[LuspResult | None, MetricsReport]:
    """Run one miner and capture metrics for that run only.

    The result, runtime, utility computations and dataset hash come from
    ``timed_run``; peak memory from a second, traced call, which a cap abort
    skips.
    """
    result, report = timed_run(db, cfg, algorithm, dataset_hash)
    if result is None:
        return result, report
    return result, replace(report, peak_bytes=_peak_bytes(db, cfg, algorithm))


def run_sweep(
    spec: SweepSpec,
    db: QSequenceDatabase,
    algorithms=ALGORITHMS,
    seed: int = 0,
) -> str:
    """Run the whole grid and return the metrics CSV (one row per algorithm,
    parameter point and repetition). Per-cell failures land in the row's
    status; growing-threshold and growing-length monotonicity of pattern
    counts is checked afterwards."""
    rows: list[MetricsReport] = []
    keys: list[tuple] = []
    for size in spec.sample_sizes:
        sub = db if size is None else sample_database(db, size, seed)
        fingerprint = dataset_fingerprint(sub)
        for cfg in spec.configs():
            threshold = cfg.min_util if cfg.min_util is not None else cfg.sigma
            min_util = str(resolve_min_util(cfg, sub))
            for rep in range(spec.repetitions):
                for algo in algorithms:
                    try:
                        _, report = run_once(sub, cfg, algo, fingerprint)
                    except Exception as exc:  # keep sweeping, record the cell
                        report = MetricsReport(
                            algo,
                            fingerprint,
                            min_util,
                            cfg.max_len,
                            0,
                            0,
                            0.0,
                            0,
                            f"error:{type(exc).__name__}",
                        )
                    rows.append(report)
                    keys.append((algo, size, rep, threshold, cfg.max_len))
    _check_monotonicity(rows, keys)
    return METRICS_HEADER + "\n" + "\n".join(r.csv_row() for r in rows) + "\n"


def _check_monotonicity(rows, keys):
    ok_rows = [
        (key, row.patterns) for key, row in zip(keys, rows) if row.status == "ok"
    ]
    # Non-decreasing pattern counts along growing threshold (fixed max_len)
    # and along growing max_len (fixed threshold).
    by_len: dict[tuple, list] = {}
    by_threshold: dict[tuple, list] = {}
    for (algo, size, rep, threshold, max_len), patterns in ok_rows:
        by_len.setdefault((algo, size, rep, max_len), []).append((threshold, patterns))
        if max_len is not None:
            by_threshold.setdefault((algo, size, rep, threshold), []).append(
                (max_len, patterns)
            )
    for groups in (by_len, by_threshold):
        for series in groups.values():
            series.sort(key=lambda kv: kv[0])
            counts = [patterns for _, patterns in series]
            if counts != sorted(counts):
                raise RuntimeError(f"pattern counts not monotonic: {series}")


def parse_metrics_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))
