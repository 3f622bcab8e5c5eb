"""--prune-baseline and the stale-entry warning."""

import io
import json
import textwrap
from pathlib import Path

from repro.lint.baseline import load_baseline
from repro.lint.cli import main

RACY = textwrap.dedent("""
import asyncio

class Registry:
    async def bump(self):
        count = self._count
        await asyncio.sleep(0.1)  # zuglint: disable=DET006
        self._count = count + 1
""")

LIVE_PRINT = "{path}::ASYNC001::repro.svc.racy:Registry.bump._count"
STALE_PRINT = "src/gone.py::DET001::12"


def write_tree(tmp_path):
    target = tmp_path / "src" / "repro" / "svc" / "racy.py"
    target.parent.mkdir(parents=True)
    target.write_text(RACY)
    return target


def write_baseline(tmp_path, entries):
    baseline = tmp_path / "lint-baseline.json"
    baseline.write_text(json.dumps({"tool": "zuglint", "suppressed": entries}))
    return baseline


def test_stale_entries_warn_but_do_not_fail(tmp_path, capsys):
    target = write_tree(tmp_path)
    live = LIVE_PRINT.format(path=str(target))
    baseline = write_baseline(tmp_path, [live, STALE_PRINT])
    stream = io.StringIO()
    code = main(["--baseline", str(baseline), str(target)], stream=stream)
    assert code == 0  # the live finding is absorbed
    err = capsys.readouterr().err
    assert "stale baseline" in err
    assert STALE_PRINT in err


def test_prune_baseline_drops_only_stale_entries(tmp_path):
    target = write_tree(tmp_path)
    live = LIVE_PRINT.format(path=str(target))
    baseline = write_baseline(tmp_path, [live, STALE_PRINT])
    stream = io.StringIO()
    code = main(
        ["--baseline", str(baseline), "--prune-baseline", str(target)],
        stream=stream,
    )
    assert code == 0
    assert "pruned 1 stale entry" in stream.getvalue()
    kept = json.loads(baseline.read_text())["suppressed"]
    assert kept == [live]


def test_prune_with_no_stale_entries_is_a_no_op(tmp_path):
    target = write_tree(tmp_path)
    live = LIVE_PRINT.format(path=str(target))
    baseline = write_baseline(tmp_path, [live])
    before = baseline.read_text()
    stream = io.StringIO()
    code = main(
        ["--baseline", str(baseline), "--prune-baseline", str(target)],
        stream=stream,
    )
    assert code == 0
    assert "pruned 0 stale entries" in stream.getvalue()
    assert baseline.read_text() == before  # file untouched, not rewritten


def test_no_warning_when_baseline_is_fully_live(tmp_path, capsys):
    target = write_tree(tmp_path)
    live = LIVE_PRINT.format(path=str(target))
    baseline = write_baseline(tmp_path, [live])
    code = main(["--baseline", str(baseline), str(target)], stream=io.StringIO())
    assert code == 0
    assert "stale" not in capsys.readouterr().err


def test_checked_in_baseline_absorbs_no_async_or_sm_finding():
    """ASYNC and SM findings are fixed, never baselined.

    The CI gate lints with ``lint-baseline.json``, so this is where the
    policy holds: the checked-in file carries no fingerprint of either.
    """
    root = Path(__file__).resolve().parents[2]
    codes = {entry.split("::")[1] for entry in load_baseline(str(root / "lint-baseline.json"))}
    assert not {code for code in codes if code.startswith(("ASYNC", "SM"))}
