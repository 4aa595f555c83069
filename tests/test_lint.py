"""Simulation-correctness lint framework (repro.lint).

Fixture-driven rule tests (one positive + one negative module per rule
family under ``tests/lint_fixtures/``), suppression and baseline
semantics, reporter output (JSON/SARIF golden shape), CLI gate
semantics, and the self-check that the shipped source lints clean
against the shipped (empty) baseline.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.findings import fingerprint_of
from repro.lint import (
    LintConfigError,
    LintReport,
    all_rules,
    lint_source,
    load_baseline,
    run_lint,
    select_rules,
    write_baseline,
)
from repro.lint.engine import BARE_NOQA_RULE, SYNTAX_RULE

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def lint_fixture(relpath: str) -> LintReport:
    return run_lint([str(FIXTURES / relpath)])


def rules_found(report: LintReport) -> set:
    return {f.rule for f in report.findings}


# ----------------------------------------------------------------------
# Rule families: each bad fixture trips its family, each ok stays clean
# ----------------------------------------------------------------------


class TestRuleFamilies:
    @pytest.mark.parametrize(
        "fixture, rule",
        [
            ("determinism/sim/bad_wall_clock.py", "DET001"),
            ("determinism/bad_global_rng.py", "DET002"),
            ("determinism/sim/bad_set_iteration.py", "DET003"),
            ("snapshot/flowsim/bad_unpicklable.py", "SNAP001"),
            ("snapshot/bad_counter.py", "SNAP002"),
            ("telemetry/bad_unguarded.py", "TEL001"),
            ("private/bad_private.py", "PRIV001"),
            ("private/bad_private.py", "PRIV002"),
            ("handlers/sim/bad_mutation.py", "EVT001"),
        ],
    )
    def test_bad_fixture_detected(self, fixture, rule):
        report = lint_fixture(fixture)
        assert rule in rules_found(report), report.summary_text()

    @pytest.mark.parametrize(
        "fixture",
        [
            "determinism/sim/ok_kernel_clock.py",
            "determinism/ok_seeded_rng.py",
            "determinism/sim/ok_sorted_iteration.py",
            "snapshot/flowsim/ok_getstate.py",
            "snapshot/ok_counter.py",
            "telemetry/ok_guarded.py",
            "private/ok_public.py",
            "handlers/sim/ok_input_event.py",
        ],
    )
    def test_ok_fixture_clean(self, fixture):
        report = lint_fixture(fixture)
        assert report.ok, report.summary_text()

    def test_bad_wall_clock_counts(self):
        # Both the time.time() and datetime.now() reads are located.
        report = lint_fixture("determinism/sim/bad_wall_clock.py")
        assert len(report.by_rule("DET001")) == 2

    def test_bad_set_iteration_flags_all_three_shapes(self):
        # Annotated parameter, self attribute, and set literal.
        report = lint_fixture("determinism/sim/bad_set_iteration.py")
        assert len(report.by_rule("DET003")) == 3

    def test_scoped_rule_ignores_out_of_scope_module(self):
        # The same wall-clock source outside a sim scope is not DET001's
        # business (host-side tooling may read the clock).
        source = (FIXTURES / "determinism/sim/bad_wall_clock.py").read_text()
        report = LintReport(rules_run=1)
        lint_source("tools/whatever.py", source, select_rules(["DET001"]), report)
        assert report.ok


# ----------------------------------------------------------------------
# Registry / selection
# ----------------------------------------------------------------------


class TestRegistry:
    def test_all_five_families_registered(self):
        families = {rule.id.rstrip("0123456789") for rule in all_rules()}
        assert {"DET", "SNAP", "TEL", "PRIV", "EVT"} <= families

    def test_rule_ids_are_stable_format(self):
        for rule in all_rules():
            assert rule.id[-3:].isdigit()
            assert rule.description

    def test_select_family_prefix(self):
        rules = select_rules(select=["DET"])
        assert {rule.id for rule in rules} == {"DET001", "DET002", "DET003"}

    def test_ignore_single_rule(self):
        rules = select_rules(ignore=["DET003"])
        ids = {rule.id for rule in rules}
        assert "DET003" not in ids and "DET001" in ids

    def test_unknown_selector_raises(self):
        with pytest.raises(LintConfigError):
            select_rules(select=["NOPE"])


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

SUPPRESSED_SRC = """\
import time

def stamp(event):
    event.time = time.time()  # repro: noqa[DET001] - test fixture
"""

BARE_SUPPRESSION_SRC = """\
import time

def stamp(event):
    event.time = time.time()  # repro: noqa[DET001]
"""

WILDCARD_SRC = """\
import time

def stamp(event):
    event.time = time.time()  # repro: noqa[*] - fixture silences all
"""

WRONG_RULE_SRC = """\
import time

def stamp(event):
    event.time = time.time()  # repro: noqa[TEL001] - wrong rule id
"""


class TestSuppressions:
    def run(self, source: str) -> LintReport:
        report = LintReport()
        lint_source("pkg/sim/mod.py", source, all_rules(), report)
        return report

    def test_noqa_with_reason_suppresses(self):
        report = self.run(SUPPRESSED_SRC)
        assert report.ok
        assert report.suppressed == 1

    def test_reasonless_noqa_suppresses_but_reports_lint002(self):
        report = self.run(BARE_SUPPRESSION_SRC)
        assert rules_found(report) == {BARE_NOQA_RULE}
        assert report.suppressed == 1

    def test_wildcard_covers_any_rule(self):
        report = self.run(WILDCARD_SRC)
        assert report.ok

    def test_wrong_rule_id_does_not_suppress(self):
        report = self.run(WRONG_RULE_SRC)
        assert "DET001" in rules_found(report)

    def test_legacy_private_ok_no_longer_suppresses(self):
        source = "def f(other):\n    return other._seq  # private-ok\n"
        report = LintReport()
        lint_source("pkg/mod.py", source, all_rules(), report)
        assert rules_found(report) == {"PRIV001"}
        assert report.suppressed == 0

    def test_syntax_error_is_lint001(self):
        report = LintReport()
        lint_source("pkg/mod.py", "def broken(:\n", all_rules(), report)
        assert rules_found(report) == {SYNTAX_RULE}


# ----------------------------------------------------------------------
# Baseline semantics
# ----------------------------------------------------------------------


class TestBaseline:
    def test_roundtrip_filters_known_findings(self, tmp_path):
        target = FIXTURES / "determinism" / "sim" / "bad_wall_clock.py"
        before = run_lint([str(target)])
        assert not before.ok
        baseline = tmp_path / "baseline.json"
        write_baseline(str(baseline), before)
        after = run_lint([str(target)], baseline=str(baseline))
        assert after.ok
        assert after.baselined == len(before.findings)

    def test_empty_baseline_filters_nothing(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"version": 1, "fingerprints": []}\n')
        target = FIXTURES / "determinism" / "sim" / "bad_wall_clock.py"
        report = run_lint([str(target)], baseline=str(baseline))
        assert not report.ok
        assert report.baselined == 0

    def test_malformed_baseline_raises(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("[1, 2, 3]\n")
        with pytest.raises(LintConfigError):
            run_lint(["src/repro/lint"], baseline=str(baseline))

    def test_shipped_baseline_is_empty(self):
        shipped = json.loads((REPO / "tools" / "lint-baseline.json").read_text())
        assert shipped["fingerprints"] == []


# ----------------------------------------------------------------------
# Reporters: shared envelope, JSON, SARIF golden shape
# ----------------------------------------------------------------------


class TestReporters:
    def report(self) -> LintReport:
        return lint_fixture("determinism/sim/bad_wall_clock.py")

    def test_envelope_matches_analysis_schema(self):
        finding = self.report().sorted_findings()[0]
        env = finding.to_envelope()
        assert set(env) == {
            "rule", "severity", "message", "location", "fingerprint"
        }
        assert env["fingerprint"] == fingerprint_of(
            env["rule"], env["location"], env["message"]
        )

    def test_json_document_shape(self):
        document = self.report().to_dict()
        assert document["errors"] == 2
        assert all(
            set(f) == {"rule", "severity", "message", "location", "fingerprint"}
            for f in document["findings"]
        )

    def test_sarif_golden_shape(self):
        sarif = self.report().to_sarif()
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {rule["id"] for rule in driver["rules"]} == {"DET001"}
        result = run["results"][0]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(
            "bad_wall_clock.py"
        )
        assert location["region"]["startLine"] > 0
        assert result["partialFingerprints"]["reproFingerprint/v1"]

    def test_sarif_tool_name_differs_from_analyzer(self):
        from repro.analysis.findings import AnalysisReport

        doc = AnalysisReport().to_sarif()
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-analyze"


# ----------------------------------------------------------------------
# CLI: gate semantics shared with `repro analyze`
# ----------------------------------------------------------------------


def run_cli(*argv: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env=env,
    )


class TestCli:
    def test_findings_exit_zero_without_strict(self):
        proc = run_cli(
            "lint", str(FIXTURES / "determinism" / "sim" / "bad_wall_clock.py")
        )
        assert proc.returncode == 0
        assert "DET001" in proc.stdout

    def test_findings_exit_nonzero_with_strict(self):
        proc = run_cli(
            "lint",
            str(FIXTURES / "determinism" / "sim" / "bad_wall_clock.py"),
            "--strict",
        )
        assert proc.returncode == 1

    def test_sarif_format(self):
        proc = run_cli(
            "lint",
            str(FIXTURES / "determinism" / "sim" / "bad_wall_clock.py"),
            "--format",
            "sarif",
        )
        document = json.loads(proc.stdout)
        assert document["version"] == "2.1.0"

    def test_list_rules(self):
        proc = run_cli("lint", "--list-rules")
        assert proc.returncode == 0
        for rule_id in ("DET001", "SNAP001", "TEL001", "PRIV001", "EVT001"):
            assert rule_id in proc.stdout

    def test_unknown_rule_fails_loudly(self):
        proc = run_cli("lint", "src/repro/lint", "--select", "NOPE")
        assert proc.returncode == 1
        assert "unknown rule" in proc.stderr


# ----------------------------------------------------------------------
# Self-check: the shipped source lints clean with the shipped baseline
# ----------------------------------------------------------------------


class TestSelfCheck:
    def test_src_is_clean(self):
        report = run_lint(
            [str(REPO / "src" / "repro")],
            baseline=str(REPO / "tools" / "lint-baseline.json"),
        )
        assert report.ok, report.summary_text()
        assert report.baselined == 0
        assert report.files_checked > 100

    def test_every_suppression_in_src_carries_a_reason(self):
        # LINT002 would fire otherwise, but assert directly for clarity.
        report = run_lint([str(REPO / "src" / "repro")])
        assert not report.by_rule(BARE_NOQA_RULE)
