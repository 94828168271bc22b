"""Exit-code and output tests for ``python -m repro.check``."""

import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.check.builders import build_verification_indexes
from repro.check.cli import main, run_invariants_command, run_lint_command

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.check", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestExitCodes:
    def test_all_exits_zero_on_clean_repo(self):
        result = run_module("all")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "lint: 0 finding(s)" in result.stdout
        assert "invariants: 0 violation(s) across 20 index(es)" in result.stdout
        assert "persist coverage:" in result.stdout
        assert "StoreBackedIndex" in result.stdout

    def test_lint_exits_one_on_findings(self, tmp_path):
        bad = tmp_path / "indexes" / "bad.py"
        bad.parent.mkdir()
        bad.write_text(
            textwrap.dedent(
                """
                def search(obs):
                    obs.prune(1.0)
                """
            )
        )
        assert run_lint_command([str(tmp_path)], out=io.StringIO()) == 1

    def test_lint_exits_two_on_missing_path(self):
        assert run_lint_command(["/no/such/path"], out=io.StringIO()) == 2

    def test_usage_error_exits_two(self):
        result = run_module("frobnicate")
        assert result.returncode == 2

    def test_invariants_exit_one_on_corrupted_index(self):
        indexes = build_verification_indexes(seed=0, n=48, only=["LAESA"])
        indexes["LAESA"].table[1, 1] += 1.0
        out = io.StringIO()
        assert run_invariants_command(indexes=indexes, out=out) == 1
        assert "table-truth" in out.getvalue()
        assert "table[1, 1]" in out.getvalue()

    def test_invariants_clean_injected_mapping(self):
        indexes = build_verification_indexes(seed=0, n=48, only=["VPTree"])
        assert run_invariants_command(indexes=indexes, out=io.StringIO()) == 0


class TestJsonOutput:
    def test_lint_json_is_parseable(self, tmp_path):
        bad = tmp_path / "indexes" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("def search(obs):\n    obs.prune(1.0)\n")
        out = io.StringIO()
        code = run_lint_command([str(tmp_path)], as_json=True, out=out)
        assert code == 1
        findings = json.loads(out.getvalue())
        assert findings[0]["code"] == "RC003"
        assert findings[0]["line"] == 2

    def test_invariants_json_is_parseable(self):
        indexes = build_verification_indexes(seed=0, n=48, only=["LinearScan"])
        out = io.StringIO()
        code = run_invariants_command(
            indexes=indexes, as_json=True, out=out
        )
        assert code == 0
        assert json.loads(out.getvalue()) == {"LinearScan": []}


class TestOptions:
    def test_invariants_only_filters(self):
        out = io.StringIO()
        code = run_invariants_command(
            size=32, only=["VPTree", "BKTree"], out=out
        )
        assert code == 0
        text = out.getvalue()
        assert "VPTree: ok" in text and "BKTree: ok" in text
        assert "MVPTree" not in text

    def test_invariants_only_unknown_class_errors(self):
        assert (
            run_invariants_command(only=["NoSuchIndex"], out=io.StringIO())
            == 2
        )

    def test_lint_select_filters_rules(self, tmp_path):
        bad = tmp_path / "indexes" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("def search(obs):\n    obs.prune(1.0)\n")
        assert (
            run_lint_command([str(tmp_path)], select="RC001", out=io.StringIO())
            == 0
        )

    def test_main_lint_on_package_is_clean(self):
        assert main(["lint", str(REPO_ROOT / "src" / "repro")]) == 0
