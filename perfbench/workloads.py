"""Workloads of the luspm benchmark.

Each workload is one canonical database, built from its recorded default
seed, plus a mining threshold. The run's ``--seed`` selects an isomorphic
copy of that database: item ids are renamed and the sequences reordered.
The input text therefore changes from seed to seed while the search the
miners perform, and with it every cost and count, stays the same. This keeps
run-to-run spread down to timing noise, which is what the bounds judge.

The copy is serialized to SPMF text and a utility table, so the benchmark
times the real load path when it parses them back.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from luspm import (
    ExternalUtilityTable,
    MiningConfig,
    QItem,
    QSequence,
    QSequenceDatabase,
    generate_synthetic,
    parse_spmf,
    parse_utility_table,
    serialize_spmf,
    serialize_utility_table,
)

# Renamed item ids are drawn from this range. It stays below 257 so every id
# remains a cached small int, as in the canonical databases.
ITEM_ID_RANGE = range(1, 200)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], QSequenceDatabase]
    default_seed: int
    cfg: MiningConfig
    # (pattern count, digest) of the canonical result, or None to skip.
    expected: tuple[int, str] | None = None

    def canonical(self) -> QSequenceDatabase:
        return self.build(self.default_seed)


@dataclass(frozen=True)
class Instance:
    """One run's input: the texts the program loads, and the renaming that
    maps canonical item ids to the ids used in them."""

    spmf: str
    utilities: str
    cfg: MiningConfig
    rename: dict[int, int]

    def load(self) -> QSequenceDatabase:
        return QSequenceDatabase(
            parse_spmf(self.spmf), parse_utility_table(self.utilities)
        )


def repeated_item(copies: int, seed: int) -> QSequenceDatabase:
    """One sequence of ``copies`` positions of item 1, quantities 1..3."""
    rng = random.Random(seed)
    elements = tuple(QItem(1, rng.randint(1, 3)) for _ in range(copies))
    return QSequenceDatabase((QSequence(0, elements),), ExternalUtilityTable({1: 1}))


WORKLOADS = {
    w.name: w
    for w in (
        # Small alphabet, sequences of 13-14 positions: many embeddings per
        # pattern, wide chains, 0 patterns. Shrink spends its time in
        # column_bound/restrict_rows, extend in evaluate and chain builds.
        Workload(
            "dense",
            lambda seed: generate_synthetic(30, 4, 13, 14, 5, 5, seed),
            default_seed=7,
            cfg=MiningConfig(min_util=8),
            expected=(0, "e3b0c44298fc1c14"),
        ),
        # Large alphabet with an exact sigma threshold: a non-empty result,
        # and most chain builds are misses that scan every sequence.
        Workload(
            "sparse",
            lambda seed: generate_synthetic(100, 30, 8, 12, 5, 5, seed),
            default_seed=1,
            cfg=MiningConfig(sigma=Fraction(1, 1000)),
            expected=(253, "d4b59805f7b85320"),
        ),
        # Every pattern qualifies; the search visits 2^n position subsets for
        # n distinct patterns, so evaluate re-sums memo-hit chains.
        Workload(
            "repeat",
            lambda seed: repeated_item(11, seed),
            default_seed=0,
            cfg=MiningConfig(min_util=10**9),
            expected=(11, "d2f1b63185f92fb3"),
        ),
    )
}


def isomorphic_copy(db: QSequenceDatabase, seed: int) -> tuple[QSequenceDatabase, dict]:
    """Rename items injectively and shuffle sequence order, both from the seed."""
    rng = random.Random(seed)
    items = sorted(db.utilities.values)
    rename = dict(zip(items, rng.sample(ITEM_ID_RANGE, len(items))))
    order = rng.sample(range(len(db)), len(db))
    sequences = tuple(
        QSequence(
            sid,
            tuple(QItem(rename[e.item], e.quantity) for e in db.sequences[i].elements),
        )
        for sid, i in enumerate(order)
    )
    table = ExternalUtilityTable({rename[i]: v for i, v in db.utilities.values.items()})
    return QSequenceDatabase(sequences, table), rename


def make_instance(workload: Workload, seed: int) -> Instance:
    copy, rename = isomorphic_copy(workload.canonical(), seed)
    return Instance(
        serialize_spmf(copy.sequences),
        serialize_utility_table(copy.utilities),
        workload.cfg,
        rename,
    )


def canonical_digest(result_set: set, rename: dict) -> tuple[int, str]:
    """Pattern count and a short hash of a result, in canonical item ids."""
    back = {new: old for old, new in rename.items()}
    rows = sorted(
        (tuple(back[i] for i in pattern), str(utility), support)
        for pattern, utility, support in result_set
    )
    text = "".join(f"{p}\t{u}\t{s}\n" for p, u, s in rows)
    return len(rows), hashlib.sha256(text.encode("ascii")).hexdigest()[:16]
