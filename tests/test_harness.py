"""Instrumented runner, sweeps, sampling and the command line interface."""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import pytest

from luspm import (
    ExternalUtilityTable,
    MiningConfig,
    QSequenceDatabase,
    SweepSpec,
    database_utility,
    dataset_fingerprint,
    generate_synthetic,
    mine_baseline,
    mine_shrink,
    parse_spmf,
    run_once,
    run_sweep,
    sample_database,
    serialize_spmf,
    serialize_utility_table,
)
from luspm import harness
from luspm.cli import main
from luspm.harness import ALGORITHMS, METRICS_HEADER, parse_metrics_csv
from luspm.seqdb import comparison_threshold, resolve_min_util


@pytest.fixture
def small_db():
    return generate_synthetic(6, 4, 2, 6, 3, 3, seed=7)


class TestRunOnce:
    def test_result_matches_direct_call(self, small_db):
        cfg = MiningConfig(min_util=12)
        result, report = run_once(small_db, cfg, "base")
        assert result is not None
        assert result.as_set() == mine_baseline(small_db, cfg).as_set()
        assert report.status == "ok"
        assert report.patterns == len(result)
        assert report.utility_computations > 0
        assert report.runtime_ms >= 0
        assert report.peak_bytes >= 0

    def test_all_algorithms_agree(self, small_db):
        cfg = MiningConfig(min_util=12)
        sets = [run_once(small_db, cfg, a)[0].as_set() for a in
                ("base", "shrink", "extend")]
        assert sets[0] == sets[1] == sets[2]

    def test_timed_call_is_untraced(self, small_db, monkeypatch):
        # The first call gives the result, runtime and counter; only the
        # second, which gives the peak, runs under tracemalloc.
        tracing = []

        def spy(*args, **kwargs):
            tracing.append(tracemalloc.is_tracing())
            return mine_shrink(*args, **kwargs)

        monkeypatch.setattr("luspm.harness.mine_shrink", spy)
        result, report = run_once(small_db, MiningConfig(min_util=12), "shrink")
        assert tracing == [False, True]
        assert not tracemalloc.is_tracing()
        assert result.as_set() == mine_shrink(small_db, MiningConfig(min_util=12)).as_set()
        assert report.peak_bytes > 0

    def test_cap_abort_is_a_status(self, small_db, monkeypatch):
        # A baseline that exceeds its candidate cap is reported, not raised:
        # no patterns, no utility computations, and no traced second call.
        tracing = []

        def capped(db, cfg, counter=None):
            tracing.append(tracemalloc.is_tracing())
            return mine_baseline(db, cfg, counter, cap=10)

        monkeypatch.setattr("luspm.harness.mine_baseline", capped)
        result, report = run_once(small_db, MiningConfig(min_util=12), "base")
        assert result is None
        assert report.status == "cap_exceeded"
        assert report.patterns == 0
        assert report.utility_computations == 0
        assert report.peak_bytes == 0
        assert tracing == [False]

    def test_extend_needs_less_memory_than_shrink(self):
        # The paper reports that LUSPM_e needs less memory than LUSPM_s. On
        # the benchmark's sparse database, extend's traced peak is at most
        # four fifths of shrink's.
        db = generate_synthetic(100, 30, 8, 12, 5, 5, 1)
        cfg = MiningConfig(sigma=Fraction(1, 1000))
        shrink, shrink_report = run_once(db, cfg, "shrink")
        extend, extend_report = run_once(db, cfg, "extend")
        assert extend.as_set() == shrink.as_set()
        assert extend_report.peak_bytes <= 0.8 * shrink_report.peak_bytes

    def test_unknown_algorithm_rejected(self, small_db):
        with pytest.raises(ValueError):
            run_once(small_db, MiningConfig(min_util=5), "magic")

    def test_csv_row_shape(self, small_db):
        _, report = run_once(small_db, MiningConfig(min_util=5), "base")
        assert len(report.csv_row().split(",")) == 9


class TestThreshold:
    """The miners compare against ``floor(min_util)`` when every utility is an
    int, and against ``min_util`` itself otherwise; either way all three
    miners agree with the baseline's exact comparison."""

    def _agreeing_results(self, db, cfg):
        runs = {a: run_once(db, cfg, a) for a in ALGORITHMS}
        sets = [result.as_set() for result, _ in runs.values()]
        assert sets[0] == sets[1] == sets[2]
        return runs

    def test_fractional_sigma_threshold_keeps_patterns_at_its_floor(self, small_db):
        # Patterns of utility 15 and 16 exist; a threshold of 31/2 admits the
        # first (utility equal to the floor) and excludes the second.
        total = database_utility(small_db)
        cfg = MiningConfig(sigma=Fraction(31, 2 * total))
        min_util = resolve_min_util(cfg, small_db)
        assert min_util == Fraction(31, 2)
        assert comparison_threshold(min_util, small_db) == 15
        every = mine_baseline(small_db, MiningConfig(min_util=10**9)).records
        assert {15, 16} <= {r.utility for r in every}
        runs = self._agreeing_results(small_db, cfg)
        for result, report in runs.values():
            assert result.min_util == Fraction(31, 2)
            row = parse_metrics_csv(f"{METRICS_HEADER}\n{report.csv_row()}\n")[0]
            assert row["min_util"] == "31/2"
            utilities = {r.utility for r in result.records}
            assert 15 in utilities and max(utilities) == 15

    def test_fractional_external_utility_keeps_the_exact_threshold(self, small_db):
        values = {**small_db.utilities.values, 2: Fraction(4, 3)}
        db = QSequenceDatabase(small_db.sequences, ExternalUtilityTable(values))
        every = mine_baseline(db, MiningConfig(min_util=10**9)).records
        # A threshold that is itself a non-integer utility of some pattern.
        target = min(
            (r for r in every if isinstance(r.utility, Fraction) and r.utility > 10),
            key=lambda r: r.utility,
        )
        cfg = MiningConfig(min_util=target.utility)
        assert comparison_threshold(target.utility, db) == target.utility
        for result, _ in self._agreeing_results(db, cfg).values():
            assert target in result.records


class TestFingerprintAndSampling:
    def test_fingerprint_sensitive_to_contents(self, small_db):
        other = generate_synthetic(6, 4, 2, 6, 3, 3, seed=8)
        assert dataset_fingerprint(small_db) != dataset_fingerprint(other)
        assert dataset_fingerprint(small_db) == dataset_fingerprint(small_db)

    def test_fingerprint_is_computed_once_per_database(
        self, tmp_path, small_db, monkeypatch
    ):
        # A sweep hashes each (sampled) database once, however many cells it
        # runs on it; ``luspm mine`` hashes only to write a metrics row.
        hashed = []
        fingerprint = harness.dataset_fingerprint

        def counting_fingerprint(db):
            hashed.append(len(db))
            return fingerprint(db)

        monkeypatch.setattr(harness, "dataset_fingerprint", counting_fingerprint)
        spec = SweepSpec(min_utils=(5, 10), max_lens=(2, None),
                         sample_sizes=(None, 4), repetitions=2)
        rows = parse_metrics_csv(run_sweep(spec, small_db))
        assert len(rows) == 2 * 2 * 2 * 2 * 3
        assert hashed == [len(small_db), 4]
        assert {r["dataset_hash"] for r in rows[:24]} == {fingerprint(small_db)}

        hashed.clear()
        db_file = tmp_path / "db.txt"
        utils_file = tmp_path / "db.utils"
        db_file.write_text(serialize_spmf(small_db.sequences))
        utils_file.write_text(serialize_utility_table(small_db.utilities))
        argv = [
            "mine", "--algo", "extend", "--db", str(db_file),
            "--utils", str(utils_file), "--min-util", "12",
            "--out", str(tmp_path / "out.tsv"),
        ]
        assert main(argv) == 0
        assert hashed == []
        metrics = tmp_path / "metrics.csv"
        assert main(argv + ["--metrics", str(metrics)]) == 0
        assert hashed == [len(small_db)]
        row = parse_metrics_csv(metrics.read_text())[0]
        assert row["dataset_hash"] == fingerprint(small_db)

    def test_sampling_is_deterministic(self, small_db):
        a = sample_database(small_db, 3, seed=1)
        b = sample_database(small_db, 3, seed=1)
        assert [s.sid for s in a.sequences] == [s.sid for s in b.sequences]
        assert len(a) == 3

    def test_sampling_preserves_order_and_contents(self, small_db):
        sub = sample_database(small_db, 4, seed=2)
        sids = [s.sid for s in sub.sequences]
        assert sids == sorted(sids)
        by_sid = {s.sid: s for s in small_db.sequences}
        assert all(by_sid[s.sid] == s for s in sub.sequences)

    def test_sampling_range_checked(self, small_db):
        with pytest.raises(ValueError):
            sample_database(small_db, 0, seed=1)
        with pytest.raises(ValueError):
            sample_database(small_db, 99, seed=1)


class TestSweep:
    def test_grid_shape_and_status(self, small_db):
        spec = SweepSpec(min_utils=(5, 10), max_lens=(2, None))
        csv_text = run_sweep(spec, small_db)
        rows = parse_metrics_csv(csv_text)
        assert len(rows) == 2 * 2 * 3  # thresholds x length caps x algorithms
        assert all(r["status"] == "ok" for r in rows)

    def test_pattern_counts_monotone_in_threshold(self, small_db):
        spec = SweepSpec(min_utils=(3, 8, 20))
        rows = parse_metrics_csv(run_sweep(spec, small_db))
        for algo in ("base", "shrink", "extend"):
            counts = [int(r["patterns"]) for r in rows if r["algo"] == algo]
            assert counts == sorted(counts)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec()
        with pytest.raises(ValueError):
            SweepSpec(min_utils=(5,), sigmas=(0.5,))
        with pytest.raises(ValueError):
            SweepSpec(min_utils=(5,), repetitions=0)


class TestCli:
    def _write_db(self, tmp_path, db):
        db_file = tmp_path / "db.txt"
        utils_file = tmp_path / "db.utils"
        db_file.write_text(serialize_spmf(db.sequences))
        utils_file.write_text(serialize_utility_table(db.utilities))
        return db_file, utils_file

    def test_mine_writes_result_and_metrics(self, tmp_path, small_db):
        db_file, utils_file = self._write_db(tmp_path, small_db)
        out = tmp_path / "out.tsv"
        metrics = tmp_path / "metrics.csv"
        code = main([
            "mine", "--algo", "shrink", "--db", str(db_file),
            "--utils", str(utils_file), "--min-util", "12",
            "--out", str(out), "--metrics", str(metrics),
        ])
        assert code == 0
        expected = mine_baseline(small_db, MiningConfig(min_util=12)).serialize()
        assert out.read_text() == expected
        rows = parse_metrics_csv(metrics.read_text())
        assert rows[0]["algo"] == "shrink" and rows[0]["status"] == "ok"

    def test_mine_traces_a_second_call_only_for_metrics(
        self, tmp_path, small_db, monkeypatch
    ):
        # Peak memory appears only in the metrics file, so without
        # ``--metrics`` the miner runs once, with tracemalloc off.
        db_file, utils_file = self._write_db(tmp_path, small_db)
        tracing = []

        def spy(*args, **kwargs):
            tracing.append(tracemalloc.is_tracing())
            return mine_shrink(*args, **kwargs)

        monkeypatch.setattr("luspm.harness.mine_shrink", spy)
        argv = [
            "mine", "--algo", "shrink", "--db", str(db_file),
            "--utils", str(utils_file), "--min-util", "12",
            "--out", str(tmp_path / "out.tsv"),
        ]
        assert main(argv) == 0
        assert tracing == [False]
        metrics = tmp_path / "metrics.csv"
        assert main(argv + ["--metrics", str(metrics)]) == 0
        assert tracing == [False, False, True]
        assert int(parse_metrics_csv(metrics.read_text())[0]["peak_bytes"]) > 0

    def test_mine_without_utils_defaults_to_ones(self, tmp_path, small_db):
        db_file, _ = self._write_db(tmp_path, small_db)
        out = tmp_path / "out.tsv"
        code = main([
            "mine", "--algo", "base", "--db", str(db_file),
            "--min-util", "6", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text()  # at least one pattern at this threshold

    def test_sweep_from_spec_file(self, tmp_path, small_db):
        db_file, utils_file = self._write_db(tmp_path, small_db)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"min_utils": [5, 10]}))
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--spec", str(spec_file), "--db", str(db_file),
            "--utils", str(utils_file), "--out", str(out),
        ])
        assert code == 0
        assert len(parse_metrics_csv(out.read_text())) == 2 * 3

    @pytest.mark.parametrize(
        "command, flag",
        [("mine", "--threads"), ("sweep", "--threads"), ("mine", "--seed")],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, small_db, capsys, command, flag):
        db_file, _ = self._write_db(tmp_path, small_db)
        if command == "mine":
            argv = ["mine", "--algo", "base", "--db", str(db_file), "--min-util", "6"]
        else:
            spec_file = tmp_path / "spec.json"
            spec_file.write_text(json.dumps({"min_utils": [5]}))
            argv = ["sweep", "--spec", str(spec_file), "--db", str(db_file)]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    def test_gen_round_trips(self, tmp_path):
        out = tmp_path / "gen.txt"
        code = main([
            "gen", "--seqs", "5", "--alphabet", "4", "--min-len", "2",
            "--max-len", "5", "--max-qty", "3", "--max-ext", "4",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert len(parse_spmf(out.read_text())) == 5
        assert (tmp_path / "gen.txt.utils").exists()
