"""Command line interface: mine, sweep and gen subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .harness import (
    ALGORITHMS,
    METRICS_HEADER,
    SweepSpec,
    run_once,
    run_sweep,
    timed_run,
)
from .seqdb import (
    ExternalUtilityTable,
    MiningConfig,
    QSequenceDatabase,
    generate_synthetic,
    parse_spmf,
    parse_utility_table,
    serialize_spmf,
    serialize_utility_table,
)


def _load_db(db_path: str, utils_path: str | None) -> QSequenceDatabase:
    sequences = parse_spmf(Path(db_path).read_text())
    if utils_path is not None:
        table = parse_utility_table(Path(utils_path).read_text())
    else:
        items = {e.item for s in sequences for e in s.elements}
        table = ExternalUtilityTable.uniform(items)
    return QSequenceDatabase(sequences, table)


def _threshold(value: str) -> Fraction | int:
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f


def _write_metrics(path: str, rows: list[str]) -> None:
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a") as fh:
        if new_file:
            fh.write(METRICS_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def _cmd_mine(args) -> int:
    db = _load_db(args.db, args.utils)
    cfg = MiningConfig(
        min_util=_threshold(args.min_util) if args.min_util is not None else None,
        sigma=Fraction(args.sigma) if args.sigma is not None else None,
        max_len=args.max_len,
    )
    # Only the metrics file records peak memory, which a second, traced call
    # measures, and the dataset hash, which is not computed without it.
    if args.metrics:
        result, report = run_once(db, cfg, args.algo)
    else:
        result, report = timed_run(db, cfg, args.algo, dataset_hash="")
    if result is None:
        print(f"status: {report.status}", file=sys.stderr)
        return 1
    text = result.serialize()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.metrics:
        _write_metrics(args.metrics, [report.csv_row()])
    print(
        f"{args.algo}: {report.patterns} patterns, "
        f"{report.utility_computations} utility computations, "
        f"{report.runtime_ms:.1f} ms",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args) -> int:
    db = _load_db(args.db, args.utils)
    raw = json.loads(Path(args.spec).read_text())
    spec = SweepSpec(
        min_utils=tuple(_threshold(str(v)) for v in raw.get("min_utils", [])),
        sigmas=tuple(Fraction(str(v)) for v in raw.get("sigmas", [])),
        max_lens=tuple(raw.get("max_lens", [None])),
        sample_sizes=tuple(raw.get("sample_sizes", [None])),
        repetitions=raw.get("repetitions", 1),
    )
    algorithms = tuple(args.algos.split(","))
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise SystemExit(f"unknown algorithm {algo!r}")
    csv_text = run_sweep(spec, db, algorithms, seed=args.seed)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_gen(args) -> int:
    db = generate_synthetic(
        args.seqs,
        args.alphabet,
        args.min_len,
        args.max_len,
        args.max_qty,
        args.max_ext,
        args.seed,
    )
    Path(args.out).write_text(serialize_spmf(db.sequences))
    Path(args.out + ".utils").write_text(serialize_utility_table(db.utilities))
    print(f"wrote {len(db)} sequences to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="luspm")
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine low-utility sequential patterns")
    mine.add_argument("--algo", choices=ALGORITHMS, required=True)
    mine.add_argument("--db", required=True)
    mine.add_argument("--utils")
    group = mine.add_mutually_exclusive_group(required=True)
    group.add_argument("--min-util")
    group.add_argument("--sigma")
    mine.add_argument("--max-len", type=int)
    mine.add_argument("--out")
    mine.add_argument("--metrics")
    mine.set_defaults(func=_cmd_mine)

    sweep = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    sweep.add_argument("--spec", required=True)
    sweep.add_argument("--db", required=True)
    sweep.add_argument("--utils")
    sweep.add_argument("--algos", default="base,shrink,extend")
    sweep.add_argument("--out")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(func=_cmd_sweep)

    gen = sub.add_parser("gen", help="generate a synthetic database")
    gen.add_argument("--seqs", type=int, required=True)
    gen.add_argument("--alphabet", type=int, required=True)
    gen.add_argument("--min-len", type=int, required=True)
    gen.add_argument("--max-len", type=int, required=True)
    gen.add_argument("--max-qty", type=int, required=True)
    gen.add_argument("--max-ext", type=int, default=1)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
