from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracerecon.cli import main


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
        # constants are set with --k-const/--tau/--gamma; there is no --mode
        with pytest.raises(SystemExit) as exc:
            main(["channel_stats", "--n", "100", "--delta", "0.1", "--mode", "paper"])
        assert exc.value.code == 2

    def test_unknown_kind_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["definitely_not_a_kind"])


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
