from __future__ import annotations

import argparse
import csv
import json
import math
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracerecon import ExperimentConfig
from tracerecon.cli import _assemble_config, _build_parser, main
from tracerecon.harness import KINDS

ROOT = Path(__file__).resolve().parent.parent


class TestCliFlags:
    def test_flags_only_run(self, tmp_path, capsys):
        out = tmp_path / "chan.csv"
        rc = main(
            [
                "channel_stats",
                "--n", "300",
                "--delta", "0.1",
                "--trials", "3",
                "--seed", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "3 trials" in capsys.readouterr().out
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "kind"
        assert len(rows) > 3

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "kind": "atomic_exact",
                    "grid": [{"m_traces": 1, "delta": 0.25}],
                    "trials": 1,
                }
            )
        )
        out = tmp_path / "atomic.csv"
        rc = main(
            ["atomic_exact", "--config", str(cfg), "--delta", "0.5", "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        # the flag override reaches the grid point
        assert ",0.5," in text
        assert ",0.25," not in text

    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(
            ["channel_stats", "--n", "100", "--delta", "0.05", "--out", str(out), "--format", "jsonl"]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "channel_stats"

    @pytest.mark.parametrize(
        "delta, regime_code, m_used",
        [
            (0.1, 2.0, 4.0),  # delta * M = 1.6: reduce_m_traces runs M' = 4
            (0.0, 1.0, 1.0),  # below 1/n^2: output_single_trace
        ],
    )
    def test_point_routed_to_a_fallback_runs(self, tmp_path, delta, regime_code, m_used):
        # the check takes the library's route, so a point derive_params
        # rejects at the full M runs when the library would run it
        out = tmp_path / "e2e.csv"
        argv = ["reconstruct_e2e", "--n", "1024", "--delta", str(delta), "--m-traces", "16", "--out", str(out)]
        assert main(argv) == 0
        metrics = {row["metric"]: float(row["value"]) for row in csv.DictReader(out.open())}
        assert "error" not in metrics
        assert (metrics["regime_code"], metrics["m_used"]) == (regime_code, m_used)

    def test_workers_flag(self, tmp_path):
        out = tmp_path / "w.csv"
        rc = main(
            [
                "channel_stats",
                "--n", "200", "--delta", "0.1",
                "--trials", "4", "--workers", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0


class TestCliErrors:
    def test_missing_required_point_fields(self, capsys):
        rc = main(["channel_stats"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"kind": "channel_stats", "grid": [], "bogus": 1}')
        rc = main(["channel_stats", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config fields" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        rc = main(["channel_stats", "--config", "/nonexistent/cfg.json"])
        assert rc == 2

    def test_empty_prlp_run_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "prlp.csv"
        argv = ["prlp", "--delta", "0.1", "--m-traces", "2", "--b-len", "4"]
        rc = main(argv + ["--mc-samples", "0", "--out", str(out)])
        assert rc == 2
        assert "mc_samples must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_flag_rejected_by_parser(self):
        # the kinds that read the constants take --k-const/--tau; there is
        # no --mode
        with pytest.raises(SystemExit) as exc:
            main(["channel_stats", "--n", "100", "--delta", "0.1", "--mode", "paper"])
        assert exc.value.code == 2

    def test_gamma_flag_rejected_by_parser(self):
        # gamma = 0.01 fixes every stage budget; no kind reads it
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct_e2e", "--n", "1024", "--delta", "0.001", "--m-traces", "4", "--gamma", "0.02"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["atomic_exact", "--n", "5"],
            ["channel_stats", "--b-len", "7", "--reconstructor", "full", "--mc-samples", "3"],
            ["channel_stats", "--n", "10", "--delta", "0.1", "--tau", "5"],
        ],
    )
    def test_flags_of_other_kinds_rejected_by_parser(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_each_subcommand_takes_its_kinds_fields(self):
        run_flags = {"help", "config", "seed", "trials", "out", "fmt", "workers"}
        (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for kind, parser in sub.choices.items():
            assert [a.dest for a in parser._actions if a.dest not in run_flags] == list(KINDS[kind].fields)

    def test_unread_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"kind": "channel_stats", "grid": [{"n": 100, "delta": 0.1, "detla": 0.5}]}))
        rc = main(["channel_stats", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "reads no grid field ['detla']" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "kind, point, message",
        [
            ("channel_stats", {"n": 10, "delta": 0.1, "gamma": "x"}, "reads no grid field ['gamma']"),
            ("reconstruct_e2e", {"n": 1024, "delta": 1e-3, "m_traces": 4, "gamma": "x"}, "reads no grid field ['gamma']"),
            (
                "aprlp_embedding",
                {"delta": 0.05, "m_traces": 2, "b_len": 3, "reconstructor": "full", "tau": -1},
                "tau must be > 0",
            ),
            ("channel_stats", {"n": True, "delta": 0.1}, "n must be an int"),
            ("channel_stats", {"n": 10.5, "delta": 0.1}, "n must be an int"),
            ("channel_stats", {"n": 10, "delta": "0.1"}, "delta must be a number"),
            ("aprlp_embedding", {"delta": 0.05, "m_traces": 2, "b_len": 3, "reconstructor": "first"}, "reconstructor must be one of"),
            ("atomic_mc", {"delta": 0.1, "m_traces": 2, "mc_samples": 1e2}, "mc_samples must be an int"),
            # constants derive_params cannot use: not finite, or sizes that overflow
            ("reconstruct_e2e", {"n": 4096, "delta": 0.01, "m_traces": 4, "tau": math.inf}, "tau must be > 0 and finite"),
            ("reconstruct_e2e", {"n": 4096, "delta": 0.01, "m_traces": 4, "gamma": math.inf}, "reads no grid field ['gamma']"),
            ("reconstruct_e2e", {"n": 4096, "delta": 0.01, "m_traces": 4, "tau": 1e308}, "too large to represent"),
            # reconstruct_e2e routes a K this small to a single trace at every
            # M' and so derives nothing; align_bench derives at the full M
            ("align_bench", {"n": 4096, "delta": 0.01, "m_traces": 4, "k_const": 1e-6}, "too large to represent"),
            # the reconstructing kinds check at the trace count they run: an
            # embedding point at its carrier's length, a reduced point at M'
            (
                "aprlp_embedding",
                {"delta": 0.01, "m_traces": 4, "b_len": 2, "reconstructor": "full", "tau": 1e308},
                "too large to represent",
            ),
            ("reconstruct_e2e", {"n": 1024, "delta": 0.1, "m_traces": 16, "tau": 1e308}, "too large to represent"),
        ],
    )
    def test_bad_field_value(self, tmp_path, capsys, kind, point, message):
        # a bad value is a config error that names its field, before any trial runs
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": kind, "grid": [point]}))
        out = tmp_path / "r.csv"
        assert main([kind, "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([{"n": 10, "delta": 0.1}], "a config must be a JSON object"),
            ({"kind": "channel_stats", "grid": {"n": 10, "delta": 0.1}}, "grid must be a list of objects"),
            ({"kind": "channel_stats", "grid": [[10, 0.1]]}, "grid must be a list of objects"),
            ({"kind": "channel_stats", "grid": [{"n": 10, "delta": 0.1}], "trials": 1.5}, "trials must be an int"),
            ({"kind": "channel_stats", "grid": [{"n": 10, "delta": 0.1}], "trials": True}, "trials must be an int"),
            ({"kind": "channel_stats", "grid": [{"n": 10, "delta": 0.1}], "seed": "1"}, "seed must be an int"),
            ({"kind": "channel_stats", "grid": [{"n": 10, "delta": 0.1}], "seed": -1}, "seed must be >= 0"),
            ({"kind": "channel_stats", "grid": [{"n": 10, "delta": 0.1}], "workers": 2.0}, "workers must be an int"),
            # an int out would name a file descriptor: 1 writes the report to stdout
            ({"kind": "channel_stats", "grid": [{"n": 10, "delta": 0.1}], "out": 1}, "out must be a path"),
        ],
    )
    def test_malformed_config_shape(self, tmp_path, monkeypatch, capsys, payload, message):
        monkeypatch.chdir(tmp_path)  # a report, were one written, would land here
        (tmp_path / "shape.json").write_text(json.dumps(payload))
        assert main(["channel_stats", "--config", "shape.json", "--n", "20"]) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["shape.json"]

    def test_config_of_another_kind(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        rc = main(["channel_stats", "--config", str(ROOT / "reports" / "working_regime_align.json"), "--out", str(out)])
        assert rc == 2
        assert "configures 'align_bench', not 'channel_stats'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_kind_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["definitely_not_a_kind"])


class TestCommittedExamples:
    """Committed configs and README commands keep validating, so a removed
    field or flag cannot leave a stale example behind."""

    def test_report_configs_validate(self):
        paths = sorted((ROOT / "reports").rglob("*.json"))
        assert paths
        for path in paths:
            ExperimentConfig.from_json(path.read_text()).validate()

    def test_readme_commands_validate(self, monkeypatch):
        monkeypatch.chdir(ROOT)  # the commands name config files from the repository root
        text = (ROOT / "README.md").read_text().replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("tracerecon ")]
        assert len(commands) >= 4
        for argv in commands:
            _assemble_config(_build_parser().parse_args(argv)).validate()


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "m.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "tracerecon.cli",
                "channel_stats", "--n", "100", "--delta", "0.1", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    @pytest.mark.skipif(
        shutil.which("tracerecon") is None,
        reason="no tracerecon console script on PATH; the package is not installed",
    )
    def test_console_script_installed(self, tmp_path):
        exe = shutil.which("tracerecon")
        out = tmp_path / "c.csv"
        proc = subprocess.run(
            [exe, "channel_stats", "--n", "64", "--delta", "0.2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_console_script_wiring(self, tmp_path):
        # what the installed script would run, checked without installing:
        # the [project.scripts] entry, called the way the setuptools wrapper
        # calls it, with the arguments left in sys.argv
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"tracerecon": "tracerecon.cli:main"}
        module, func = scripts["tracerecon"].split(":")
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [
                sys.executable, "-c", wrapper,
                "channel_stats", "--n", "64", "--delta", "0.2", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.reader(out.open()))
        assert rows[0][0] == "kind" and len(rows) > 1
