"""Smoke tests of the benchmark at tiny sizes."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import bench
from luspm import (
    LuspRecord,
    LuspResult,
    MiningConfig,
    chains,
    generate_synthetic,
    miner_extend,
    miner_shrink,
    occurrence,
    preprocess,
)
from luspm.chains import ChainStore
from workloads import WORKLOADS, Workload, repeated_item

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

TINY = {
    "dense": Workload(
        "dense", lambda s: generate_synthetic(6, 3, 5, 6, 5, 5, s), 2, MiningConfig(min_util=8)
    ),
    "sparse": Workload(
        "sparse",
        lambda s: generate_synthetic(12, 8, 3, 5, 5, 5, s),
        1,
        MiningConfig(sigma=Fraction(1, 20)),
    ),
    "repeat": Workload(
        "repeat", lambda s: repeated_item(5, s), 0, MiningConfig(min_util=10**9)
    ),
}


@pytest.fixture(scope="module")
def spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_bench(capsys, workload, trace, mine=bench.mine):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    code = bench.main(argv, mine=mine, workloads=TINY)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_spec_names_the_benchmark_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(TINY) == list(WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_named_metric_is_printed(capsys, spec, workload, trace, key):
    code, lines, out = run_bench(capsys, workload, trace)
    assert code == 0
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec[key]}
    assert {n: m["unit"] for n, m in out["metrics"].items()} == wanted
    for name in wanted:
        assert any(line.startswith(f"{name} = ") for line in lines)


def test_corrupted_result_lands_in_failed_frac(capsys):
    def corrupted(algo, db, cfg, counter, shadow=None):
        result = bench.mine(algo, db, cfg, counter, shadow)
        if algo != "extend":
            return result
        extra = LuspRecord((10**6,), 1, 1)
        return LuspResult.from_records(result.records + (extra,), result.min_util, None)

    code, lines, out = run_bench(capsys, "sparse", 0, mine=corrupted)
    assert code == 1
    assert out["correct"] is False and out["failed"] >= 1
    frac = float(next(l for l in lines if l.startswith("failed_frac = ")).split()[-1])
    assert frac == out["failed"] / out["attempted"] > 0


def test_traced_run_restores_every_patch_point(capsys):
    run_bench(capsys, "dense", 1)
    for module in (miner_shrink, miner_extend):
        assert module.restrict_rows is chains.restrict_rows
        assert module.column_bound is chains.column_bound
        assert module.build_bit_index is occurrence.build_bit_index
        assert module.build_max_non_con_seq_set is preprocess.build_max_non_con_seq_set
    assert chains.enumerate_embeddings is occurrence.enumerate_embeddings
    for name in ("tagged", "evaluate"):
        assert vars(ChainStore)[name].__module__ == chains.__name__


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC_PATH, tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
