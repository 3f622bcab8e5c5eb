"""CLI contract: exit codes 0/1/2, formats, rule listing."""

import io
import json
import textwrap

import pytest

from repro.lint import all_rules
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, build_parser, main

CLEAN = "def stamp(env):\n    return env.now()\n"
DIRTY = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, stream=out)
    return code, out.getvalue()


def test_exit_zero_on_clean_tree(tmp_path):
    (tmp_path / "clean.py").write_text(CLEAN, encoding="utf-8")
    code, output = run_cli([str(tmp_path)])
    assert code == EXIT_CLEAN
    assert "clean" in output


def test_exit_one_on_findings(tmp_path):
    (tmp_path / "dirty.py").write_text(DIRTY, encoding="utf-8")
    code, output = run_cli([str(tmp_path)])
    assert code == EXIT_FINDINGS
    assert "DET001" in output


def test_exit_two_on_usage_errors(tmp_path):
    assert run_cli([])[0] == EXIT_USAGE
    (tmp_path / "dirty.py").write_text(DIRTY, encoding="utf-8")
    assert run_cli(["--select", "NOPE999", str(tmp_path)])[0] == EXIT_USAGE
    assert run_cli(["does/not/exist.py"])[0] == EXIT_USAGE


def test_json_format(tmp_path):
    (tmp_path / "dirty.py").write_text(DIRTY, encoding="utf-8")
    code, output = run_cli(["--format", "json", str(tmp_path)])
    assert code == EXIT_FINDINGS
    payload = json.loads(output)
    assert payload["count"] == 1
    assert payload["findings"][0]["code"] == "DET001"
    assert payload["findings"][0]["fingerprint"].endswith("::DET001::5")


def test_list_rules_names_every_code():
    code, output = run_cli(["--list-rules"])
    assert code == EXIT_CLEAN
    for rule in all_rules():
        assert rule.code in output


def test_help_documents_usage_contract():
    """`--help` text and README agree on the invocation and exit codes."""
    parser = build_parser()
    text = " ".join(parser.format_help().split())  # undo argparse line wrapping
    assert "repro-lint" in text
    assert "zuglint" in text
    assert "0 clean" in text and "1 findings" in text and "2 usage error" in text
    assert "zuglint: disable=CODE" in text.replace("disable- file", "disable-file")


def test_help_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    capsys.readouterr()
