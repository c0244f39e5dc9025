from __future__ import annotations

import csv
import dataclasses
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tracerecon import (
    DESK_DEFAULTS,
    PAPER_DEFAULTS,
    BitString,
    ExperimentConfig,
    TrialResult,
    derive_params,
    edit_distance,
    emit_report,
    fallback_params,
    run_experiment,
)
from tracerecon import harness
from tracerecon.harness import FIELDS, KINDS
from tracerecon.lower_bound import EXACT_MAX_M


# a point each kind runs, with only the fields it reads
POINTS = {
    "channel_stats": {"n": 100, "delta": 0.1},
    "bma_bench": {"n": 64, "delta": 0.01, "m_traces": 3},
    "align_bench": {"n": 4096, "delta": 1e-3, "m_traces": 4},
    "reconstruct_e2e": {"n": 1024, "delta": 1e-3, "m_traces": 4},
    "atomic_exact": {"delta": 0.1, "m_traces": 2},
    "atomic_mc": {"delta": 0.1, "m_traces": 2, "mc_samples": 100},
    "prlp": {"delta": 0.1, "m_traces": 2, "b_len": 4, "mc_samples": 100},
    "aprlp_embedding": {"delta": 0.05, "m_traces": 2, "b_len": 3, "reconstructor": "full"},
}


def small_config(**overrides):
    base = dict(
        kind="channel_stats",
        grid=[{"n": 500, "delta": 0.1}, {"n": 500, "delta": 0.02}],
        trials=4,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_json('{"kind": "channel_stats", "grid": [], "frobnicate": 1}')

    def test_from_json_rejects_mode(self):
        # constants travel in the grid points; there is no mode field
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_json(
                '{"kind": "channel_stats", "grid": [{"n": 100, "delta": 0.1}], "mode": "paper"}'
            )

    def test_from_json_roundtrip(self):
        cfg = ExperimentConfig.from_json(
            '{"kind": "channel_stats", "grid": [{"n": 100, "delta": 0.1}], "trials": 2}'
        )
        assert cfg.kind == "channel_stats" and cfg.trials == 2

    def test_validate_fills_defaults(self):
        # the constants are defaults only of the kinds that read them
        for kind, given in POINTS.items():
            point = dict(given)
            ExperimentConfig(kind=kind, grid=[point]).validate()
            if kind in ("align_bench", "reconstruct_e2e", "aprlp_embedding"):
                assert {name: point[name] for name in DESK_DEFAULTS} == DESK_DEFAULTS
            else:
                assert not set(point) & set(DESK_DEFAULTS)

    def test_validate_fills_kind_defaults(self):
        want = {
            "atomic_mc": {"mc_samples": 10**6},
            "prlp": {"mc_samples": 10**5},
            "aprlp_embedding": {"reconstructor": "first_trace", **DESK_DEFAULTS},
        }
        for kind, defaults in want.items():
            point = {k: v for k, v in POINTS[kind].items() if k not in defaults}
            ExperimentConfig(kind=kind, grid=[point]).validate()
            assert point == {**POINTS[kind], **defaults}

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("channel_stats", {"detla": 0.5}),
            ("aprlp_embedding", {"reconstuctor": "full"}),
            ("bma_bench", {"l_desert": 40}),
            ("channel_stats", {"m_traces": 25}),
            ("atomic_exact", {"n": 5}),
            ("channel_stats", {"tau": 5.0}),
            ("prlp", {"gamma": 0.01}),
        ],
    )
    def test_validate_rejects_unread_fields(self, kind, extra):
        cfg = ExperimentConfig(kind=kind, grid=[{**POINTS[kind], **extra}])
        with pytest.raises(ValueError, match=re.escape(f"{kind} reads no grid field {list(extra)}")):
            cfg.validate()

    @pytest.mark.parametrize("kind", sorted(POINTS))
    def test_validate_names_missing_fields(self, kind):
        for name in KINDS[kind].required:
            point = {k: v for k, v in POINTS[kind].items() if k != name}
            with pytest.raises(ValueError, match=re.escape(f"grid point missing {[name]}")):
                ExperimentConfig(kind=kind, grid=[point]).validate()

    @pytest.mark.parametrize("kind", sorted(POINTS))
    def test_validate_range_checks_every_kind(self, kind):
        ExperimentConfig(kind=kind, grid=[dict(POINTS[kind])]).validate()
        for name in ("n", "m_traces", "b_len", "mc_samples"):
            if name in KINDS[kind].fields:
                point = {**POINTS[kind], name: 0}
                with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                    ExperimentConfig(kind=kind, grid=[point]).validate()
        for delta in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="delta must be in"):
                ExperimentConfig(kind=kind, grid=[{**POINTS[kind], "delta": delta}]).validate()
        for name in DESK_DEFAULTS:
            if name in KINDS[kind].fields:
                for value in (0.0, -1, float("nan"), float("inf")):
                    point = {**POINTS[kind], name: value}
                    with pytest.raises(ValueError, match=f"{name} must be > 0"):
                        ExperimentConfig(kind=kind, grid=[point]).validate()

    def test_fields_table_matches_the_kinds(self):
        # every declared field is read by some kind, and every field a kind
        # reads is declared
        read = {name for kind in KINDS.values() for name in kind.fields}
        assert read == set(FIELDS)

    def test_constants_agree_across_layers(self):
        # a constant removed in one layer cannot linger in another: both
        # constant sets, the keywords of derive_params (defaulting to the desk
        # set) and of fallback_params, and the grid fields name the same
        # constants, and a kind reads all of them or none; the test above
        # checks that every declared field is read by some kind
        def keywords(fn):
            params = inspect.signature(fn).parameters.values()
            return {p.name: p.default for p in params if p.kind is inspect.Parameter.KEYWORD_ONLY}

        assert keywords(derive_params) == DESK_DEFAULTS
        assert set(keywords(fallback_params)) == set(PAPER_DEFAULTS) == set(DESK_DEFAULTS)
        assert set(DESK_DEFAULTS) <= set(FIELDS)
        for kind in KINDS.values():
            assert set(DESK_DEFAULTS) & set(kind.fields) in (set(), set(DESK_DEFAULTS))

    def test_validate_paper_defaults(self):
        # the paper set goes in through the points, and validate keeps it
        cfg = small_config(kind="reconstruct_e2e", grid=[{**POINTS["reconstruct_e2e"], **PAPER_DEFAULTS}])
        cfg.validate()
        assert cfg.grid[0]["tau"] == 500.0

    def test_validate_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            small_config(kind="nope").validate()

    def test_validate_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grid"):
            small_config(grid=[]).validate()

    def test_validate_rejects_bad_point(self):
        with pytest.raises(ValueError):
            small_config(grid=[{"n": 10}]).validate()  # delta missing

    def test_every_kind_registered(self):
        assert set(KINDS) == {
            "channel_stats",
            "bma_bench",
            "align_bench",
            "reconstruct_e2e",
            "atomic_exact",
            "atomic_mc",
            "prlp",
            "aprlp_embedding",
        }


class TestRunExperiment:
    def test_channel_stats_metrics(self):
        results = run_experiment(small_config())
        assert len(results) == 8
        for res in results:
            assert res.error is None
            assert res.metrics["roundtrip_ok"] == 1.0
            assert 0 <= res.metrics["trace_len"] <= 500
            assert res.metrics["trace_len"] + res.metrics["deleted_count"] == 500
            assert "runtime_ms" in res.metrics

    def test_deterministic_across_worker_counts(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(workers=8))
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.point == rb.point and ra.trial == rb.trial
            ka = {k: v for k, v in ra.metrics.items() if k != "runtime_ms"}
            kb = {k: v for k, v in rb.metrics.items() if k != "runtime_ms"}
            assert ka == kb

    def test_import_leaves_the_process_pool_unloaded(self):
        # the pool is imported only when a run asks for workers > 1
        src = Path(harness.__file__).resolve().parents[1]
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import tracerecon; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] in ('concurrent', 'multiprocessing')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_trial_streams_independent_of_grid_shape(self):
        # (seed, grid index, trial) keys the stream: reordering the grid
        # moves results with their index, adding trials extends in place
        base = run_experiment(small_config(trials=2))
        more = run_experiment(small_config(trials=4))
        assert [r.metrics["trace_len"] for r in base] == [
            r.metrics["trace_len"]
            for r in more
            if r.trial < 2
        ]

    def test_error_rows_do_not_abort(self):
        # config validation passes, but the margin swallows the whole trace
        # at runtime; the sweep must keep going and tag the row
        cfg = ExperimentConfig(
            kind="align_bench",
            grid=[
                {"n": 256, "delta": 0.01, "m_traces": 4},
                {"n": 2**14, "delta": 1e-4, "m_traces": 4, "k_const": 4.0},
            ],
            trials=1,
            seed=1,
        )
        results = run_experiment(cfg)
        assert results[0].error is not None
        assert results[0].metrics["error"] == 1.0
        assert results[1].error is None

    def test_config_errors_reject_upfront(self):
        cfg = ExperimentConfig(
            kind="atomic_exact", grid=[{"m_traces": 40, "delta": 0.5}], seed=1
        )
        with pytest.raises(ValueError, match="bad atomic point"):
            run_experiment(cfg)

    def test_prlp_rejects_an_empty_monte_carlo_run(self):
        cfg = ExperimentConfig(
            kind="prlp", grid=[{"m_traces": 2, "delta": 0.1, "b_len": 4, "mc_samples": 0}], seed=1
        )
        with pytest.raises(ValueError, match="mc_samples must be >= 1"):
            run_experiment(cfg)

    def test_exact_kinds_share_the_enumeration_limit(self):
        top = EXACT_MAX_M
        ok = ExperimentConfig(kind="atomic_exact", grid=[{"m_traces": top, "delta": 0.1}], seed=1)
        assert run_experiment(ok)[0].error is None
        past = dataclasses.replace(ok, grid=[{"m_traces": top + 1, "delta": 0.1}])
        with pytest.raises(ValueError, match="bad atomic point"):
            run_experiment(past)
        prlp = [{"m_traces": m, "delta": 0.1, "b_len": 4, "mc_samples": 10} for m in (top, top + 1)]
        at, above = run_experiment(ExperimentConfig(kind="prlp", grid=prlp, seed=1))
        assert "ceiling" in at.metrics and "ceiling" not in above.metrics

    def test_atomic_exact_value(self):
        cfg = ExperimentConfig(
            kind="atomic_exact", grid=[{"m_traces": 1, "delta": 0.5}], seed=0
        )
        (res,) = run_experiment(cfg)
        assert res.metrics["p_exact"] == pytest.approx(0.3125)

    def test_reconstruct_e2e_regime_codes(self):
        cfg = ExperimentConfig(
            kind="reconstruct_e2e",
            grid=[{"n": 1024, "delta": 1e-9, "m_traces": 4}],
            seed=3,
        )
        (res,) = run_experiment(cfg)
        assert res.metrics["regime_code"] == 1.0  # single-trace fallback
        assert res.metrics["edit_distance"] >= 0.0
        assert res.metrics["normalized_distance"] <= 2.0

    def test_reconstruct_e2e_reports_exact_distance_beyond_cap(self, monkeypatch):
        # a doubled hypothesis lies far beyond the cap max(64, 2 delta n); the
        # report must carry its exact distance, not the cap
        seen = {}
        real_bits = harness.random_bits
        real_recon = harness.reconstruct_with_fallback

        def recording_bits(n, rng):
            seen["x"] = real_bits(n, rng)
            return seen["x"]

        def doubled(n, delta, traces, **kwargs):
            res = real_recon(n, delta, traces, **kwargs)
            seen["hyp"] = BitString(res.hypothesis.tobytes() * 2)
            seen["trace0"] = traces[0]
            return dataclasses.replace(res, hypothesis=seen["hyp"])

        monkeypatch.setattr(harness, "random_bits", recording_bits)
        monkeypatch.setattr(harness, "reconstruct_with_fallback", doubled)
        # the trace baseline must be exact whether or not the trace lost bits
        for delta in (1e-9, 0.02):
            cfg = ExperimentConfig(
                kind="reconstruct_e2e",
                grid=[{"n": 1024, "delta": delta, "m_traces": 4}],
                seed=3,
            )
            (res,) = run_experiment(cfg)
            d = edit_distance(seen["x"], seen["hyp"])
            assert d > 64
            assert res.metrics["edit_distance"] == d
            assert res.metrics["edit_distance_capped"] == 1.0
            assert res.metrics["normalized_distance"] == d / 1024
            baseline = edit_distance(seen["x"], seen["trace0"])
            assert res.metrics["baseline_distance"] == baseline
            assert (baseline > 0) == (delta > 0.01)

    def test_bma_bench_runs(self):
        cfg = ExperimentConfig(
            kind="bma_bench",
            grid=[{"n": 64, "delta": 0.01, "m_traces": 10}],
            trials=3,
            seed=5,
        )
        results = run_experiment(cfg)
        for res in results:
            assert res.error is None
            assert res.metrics["bma_success"] in (0.0, 1.0)
            assert res.metrics["margin_min"] >= 0.0


    def test_failed_alignment_has_no_consensus(self):
        # the delta=0.01, M=25, K=2 point of reports/working_regime_align.json,
        # where every alignment fails; a failed alignment places no cursors,
        # so nothing can agree on a source position
        cfg = ExperimentConfig(
            kind="align_bench",
            grid=[{"n": 131072, "delta": 0.01, "m_traces": 25, "k_const": 2.0}],
            trials=4,
            seed=2026,
        )
        failed = [r for r in run_experiment(cfg) if r.metrics["failure_stage"] != -1]
        assert failed
        for res in failed:
            assert res.metrics["consensus"] == 0.0
            assert res.metrics["align_success"] == 0.0

    def test_every_kind_runs_its_point(self):
        for kind, point in POINTS.items():
            (res,) = run_experiment(ExperimentConfig(kind=kind, grid=[dict(point)], seed=4))
            assert res.error is None, (kind, res.error)


class TestReports:
    def test_csv_columns_and_rows(self, tmp_path):
        res = TrialResult(
            kind="channel_stats",
            point={"n": 10, "delta": 0.1},
            seed=1,
            trial=0,
            metrics={"a": 1.0, "b": 2.5},
            error=None,
        )
        out = tmp_path / "r.csv"
        emit_report([res], "csv", str(out))
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["kind", "n", "delta", "seed", "trial", "metric", "value"]
        assert len(rows) == 3  # header + one row per metric
        assert rows[1] == ["channel_stats", "10", "0.1", "1", "0", "a", "1.0"]
        assert rows[2] == ["channel_stats", "10", "0.1", "1", "0", "b", "2.5"]

    def test_csv_has_a_column_per_field(self, tmp_path):
        # each field the kind reads is a column, in declared order, and
        # travels nowhere else; no kind gets a column it does not read
        for kind, point in POINTS.items():
            (res,) = run_experiment(ExperimentConfig(kind=kind, grid=[dict(point)], seed=1))
            out = tmp_path / f"{kind}.csv"
            emit_report([res], "csv", str(out))
            header, *rows = list(csv.reader(out.open()))
            fields = list(KINDS[kind].fields)
            assert header == ["kind", *fields, "seed", "trial", "metric", "value"]
            for row in rows:
                assert row[1 : 1 + len(fields)] == [str(res.point[name]) for name in fields]
            assert [row[-2] for row in rows] == list(res.metrics)
            assert not set(res.metrics) & set(fields)

    def test_empty_results_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_report([], "csv", str(out))
        rows = list(csv.reader(out.open()))
        assert rows == [["kind", "seed", "trial", "metric", "value"]]

    def test_jsonl_roundtrip(self, tmp_path):
        results = run_experiment(small_config(trials=2))
        out = tmp_path / "r.jsonl"
        emit_report(results, "jsonl", str(out))
        back = [TrialResult(**json.loads(line)) for line in out.read_text().splitlines()]
        assert back == results

    def test_error_message_only_in_jsonl(self, tmp_path):
        cfg = ExperimentConfig(
            kind="align_bench",
            grid=[{"n": 256, "delta": 0.01, "m_traces": 4}],
            seed=1,
        )
        results = run_experiment(cfg)
        csv_path = tmp_path / "e.csv"
        jsonl_path = tmp_path / "e.jsonl"
        emit_report(results, "csv", str(csv_path))
        emit_report(results, "jsonl", str(jsonl_path))
        csv_text = csv_path.read_text()
        assert "error,1.0" in csv_text.replace("\r", "")
        assert "RuntimeError" not in csv_text
        obj = json.loads(jsonl_path.read_text().splitlines()[0])
        assert "RuntimeError" in obj["error"]

    def test_byte_identical_reports(self, tmp_path):
        # determinism modulo the runtime column
        def report_bytes(workers):
            results = run_experiment(small_config(workers=workers))
            path = tmp_path / f"w{workers}.csv"
            emit_report(results, "csv", str(path))
            lines = [
                line
                for line in path.read_text().splitlines()
                if ",runtime_ms," not in line
            ]
            return "\n".join(lines)

        assert report_bytes(1) == report_bytes(8)
