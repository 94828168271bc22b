"""In-process tests for the ``repro-fuzz`` command line."""

import json

import pytest

import repro.indexes.kernels as kernels_module
from repro.cli import main as repro_main
from repro.fuzz.cases import generate_spec
from repro.fuzz.cli import main
from repro.fuzz.corpus import save_entry


class TestRun:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["run", "--seed", "0", "--cases", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "failures=0" in out and "covered indexes" in out

    def test_progress_lines(self, capsys):
        main(["run", "--seed", "0", "--cases", "2"])
        out = capsys.readouterr().out
        assert "seed0-case0000" in out and " ok" in out

    def test_cases_must_be_positive(self, capsys):
        assert main(["run", "--cases", "0"]) == 2

    def test_clean_run_writes_manifest(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--seed",
                "0",
                "--cases",
                "2",
                "--quiet",
                "--manifest",
                str(tmp_path),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["cases"] == 2

    def test_failing_run_shrinks_and_saves(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(kernels_module, "slack", lambda value: -0.05)
        code = main(
            [
                "run",
                "--seed",
                "0",
                "--cases",
                "14",  # includes vpt cases 1 and 13; 13 fails
                "--quiet",
                "--shrink",
                "--save-failures",
                str(tmp_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "shrunk" in out and "saved reproducer" in out
        assert "def test_fuzz_regression_" in out
        saved = list(tmp_path.glob("*.json"))
        assert saved, "no corpus entry written for the failure"


class TestReplay:
    def test_replay_clean_corpus(self, tmp_path, capsys):
        save_entry(generate_spec(0, 0).concretize(), tmp_path)
        assert main(["replay", "--corpus", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "replayed 1 corpus entries, 0 failing" in out

    def test_replay_empty_corpus(self, tmp_path, capsys):
        assert main(["replay", "--corpus", str(tmp_path)]) == 0
        assert "replayed 0 corpus entries" in capsys.readouterr().out

    def test_replay_verifies_manifest(self, tmp_path, capsys):
        assert (
            main(
                [
                    "run",
                    "--seed",
                    "0",
                    "--cases",
                    "2",
                    "--quiet",
                    "--manifest",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert main(["replay", "--corpus", str(tmp_path)]) == 0
        assert "digests reproduced" in capsys.readouterr().out

    def test_replay_detects_manifest_drift(self, tmp_path, capsys):
        args = ["run", "--seed", "0", "--cases", "2", "--quiet"]
        main(args + ["--manifest", str(tmp_path)])
        manifest_path = tmp_path / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["case_digests"][0] = "0" * 16
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["replay", "--corpus", str(tmp_path)]) == 1
        assert "DRIFT" in capsys.readouterr().out


class TestShrinkCommand:
    def test_passing_case_nothing_to_shrink(self, capsys):
        assert main(["shrink", "--seed", "0", "--case-index", "0"]) == 0
        assert "nothing to shrink" in capsys.readouterr().out

    def test_shrink_failing_case_saves_reproducer(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(kernels_module, "slack", lambda value: -0.05)
        code = main(
            [
                "shrink",
                "--seed",
                "0",
                "--case-index",
                "13",
                "--save",
                str(tmp_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "saved reproducer" in out
        assert list(tmp_path.glob("*shrunk*.json"))

    def test_shrink_entry_source(self, tmp_path, capsys):
        path = save_entry(generate_spec(0, 0).concretize(), tmp_path)
        assert main(["shrink", "--entry", str(path)]) == 0

    def test_source_is_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["shrink", "--seed", "0"])
        assert excinfo.value.code == 2


class TestEntryPoints:
    def test_repro_fuzz_passthrough(self, capsys):
        assert repro_main(["fuzz", "run", "--cases", "1", "--quiet"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_dash_m_module_exists(self):
        import importlib

        module = importlib.import_module("repro.fuzz.__main__")
        assert module.main is main
