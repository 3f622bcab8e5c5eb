"""Engine mechanics: suppressions, module naming, selection, parse errors."""

import textwrap

import pytest

from repro.lint import LintError, all_rules, lint_paths, lint_sources, rule_for_code
from repro.lint.engine import SYNTAX_ERROR_CODE, module_name_for_path

FLAGGED = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


def test_shipped_rule_inventory():
    rule_codes = {rule.code for rule in all_rules()}
    assert {"DET001", "DET002", "DET003", "DET004", "DET005",
            "PROTO001", "PROTO003", "PROTO004"} <= rule_codes
    # A duplicate wire tag fails at import (``WireStruct.__init_subclass__``).
    assert "PROTO002" not in rule_codes
    det = [code for code in rule_codes if code.startswith("DET")]
    proto = [code for code in rule_codes if code.startswith("PROTO")]
    assert len(det) + len(proto) >= 8
    for rule in all_rules():
        assert rule.description, rule.code


def test_inline_suppression_on_line():
    source = FLAGGED.replace("time.time()", "time.time()  # zuglint: disable=DET001")
    assert not lint_sources({"src/repro/sim/x.py": source})
    # Wrong code on the comment does not suppress.
    wrong = FLAGGED.replace("time.time()", "time.time()  # zuglint: disable=DET002")
    assert [f.code for f in lint_sources({"src/repro/sim/x.py": wrong})] == ["DET001"]


def test_file_level_suppression():
    source = "# zuglint: disable-file=DET001\n" + FLAGGED
    assert not lint_sources({"src/repro/sim/x.py": source})
    everything = "# zuglint: disable-file=all\n" + FLAGGED
    assert not lint_sources({"src/repro/sim/x.py": everything})


def test_select_and_ignore_filter_rules():
    source = FLAGGED + "\ndef enqueue(queue=[]):\n    pass\n"
    both = lint_sources({"src/repro/sim/x.py": source})
    assert {f.code for f in both} == {"DET001", "PROTO004"}
    only_det = lint_sources({"src/repro/sim/x.py": source}, select=["DET001"])
    assert {f.code for f in only_det} == {"DET001"}
    no_det = lint_sources({"src/repro/sim/x.py": source}, ignore=["DET001"])
    assert {f.code for f in no_det} == {"PROTO004"}


def test_unknown_rule_code_raises():
    with pytest.raises(LintError):
        lint_sources({"src/repro/sim/x.py": "x = 1\n"}, select=["NOPE999"])
    with pytest.raises(LintError):
        rule_for_code("NOPE999")


def test_module_name_for_path():
    assert module_name_for_path("src/repro/sim/kernel.py") == "repro.sim.kernel"
    assert module_name_for_path("/abs/repo/src/repro/util/rng.py") == "repro.util.rng"
    assert module_name_for_path("repro/runtime/env.py") == "repro.runtime.env"
    assert module_name_for_path("tests/lint/test_engine.py") == "tests.lint.test_engine"
    assert module_name_for_path("src/repro/lint/__init__.py") == "repro.lint"
    assert module_name_for_path("scratch.py") == "scratch"


def test_findings_carry_location_and_fingerprint():
    findings = lint_sources({"src/repro/sim/x.py": FLAGGED})
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "src/repro/sim/x.py"
    assert finding.line == 5
    assert finding.fingerprint == "src/repro/sim/x.py::DET001::5"
    assert "src/repro/sim/x.py:5" in finding.render()


def test_syntax_error_becomes_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n", encoding="utf-8")
    findings = lint_paths([str(tmp_path)])
    assert [f.code for f in findings] == [SYNTAX_ERROR_CODE]


def test_lint_paths_rejects_missing_path():
    with pytest.raises(LintError):
        lint_paths(["no/such/dir"])
