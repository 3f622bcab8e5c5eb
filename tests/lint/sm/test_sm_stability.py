"""SM fingerprint stability and the four-stage SARIF end-to-end run.

SM findings anchor to structural identities (function key + the
gate/attr/exception involved), so their fingerprints must survive the
two edits that invalidate line-number fingerprints: inserting unrelated
lines above the finding and reordering the files of the run.
"""

import io
import json
import textwrap

from repro.lint import lint_sources
from repro.lint.cli import main

CRATE = {
    "src/repro/bft/crate.py": """
    class Vote:
        pass

    class Commit:
        pass

    class Replica:
        def on_message(self, src, message):
            if isinstance(message, Vote):
                self._on_vote(message)
            elif isinstance(message, Commit):
                self._on_commit(message)

        def _on_vote(self, message):
            self.votes[message.replica_id] = message
            if len(self.votes) >= 3:
                self._decide()

        def _on_commit(self, message):
            if not message.verify(self.keystore):
                return
            instance = self.instances[message.seq]
            instance.prepared = True

        def _decide(self):
            pass
    """,
    "src/repro/core/crate.py": """
    class ChainError(Exception):
        pass

    class Submit:
        pass

    class Query:
        pass

    class Node:
        def handle_message(self, src, message):
            if isinstance(message, Submit):
                self._on_submit(message)
            elif isinstance(message, Query):
                self._on_query(message)

        def _on_submit(self, message):
            if message.height != self.height + 1:
                raise ChainError("height gap")
            self.height = message.height

        def _on_query(self, message):
            self.served += 1
    """,
}

SELECT = ["SM001", "SM003", "SM006"]


def run(sources, select=SELECT):
    return lint_sources(
        {path: textwrap.dedent(text) for path, text in sources.items()},
        select=select,
    )


def fingerprints(sources):
    return sorted(finding.fingerprint for finding in run(sources))


def test_crate_produces_one_finding_per_selected_sm_rule():
    codes = sorted(finding.code for finding in run(CRATE))
    assert codes == SELECT


def test_sm_fingerprints_survive_unrelated_line_insertion():
    baseline = fingerprints(CRATE)
    padded = {
        path: "# padding\n# more padding\n\n" + textwrap.dedent(text)
        for path, text in CRATE.items()
    }
    shifted = sorted(
        finding.fingerprint
        for finding in lint_sources(padded, select=SELECT)
    )
    assert shifted == baseline
    # The raw line numbers DID move — the anchors are doing the work.
    assert {f.line for f in run(CRATE)} != {
        f.line for f in lint_sources(padded, select=SELECT)
    }


def test_sm_fingerprints_survive_file_reordering():
    items = [(path, textwrap.dedent(text)) for path, text in CRATE.items()]
    forward = sorted(f.fingerprint for f in lint_sources(items, select=SELECT))
    backward = sorted(
        f.fingerprint for f in lint_sources(items[::-1], select=SELECT)
    )
    assert forward == backward


def test_end_to_end_four_stage_sarif_run(tmp_path):
    """--format sarif over a tree with ast, flow, aio, and sm findings."""
    target = tmp_path / "src" / "repro" / "bft" / "mixed.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent("""
    import time
    import asyncio

    def now_us():
        return int(time.time() * 1e6)

    class Stamp:
        def encode(self, writer):
            writer.put_uint(now_us())
            return writer.getvalue()

    class Registry:
        async def bump(self):
            count = self._count
            await asyncio.sleep(0.1)
            self._count = count + 1

    class Ping:
        pass

    class Pong:
        pass

    class Counter:
        def on_message(self, src, message):
            if isinstance(message, Ping):
                self._on_ping(message)
            elif isinstance(message, Pong):
                self._on_pong(message)

        def _on_ping(self, message):
            self.votes[message.replica_id] = message
            if len(self.votes) >= 3:
                self.decided = len(self.votes)

        def _on_pong(self, message):
            self.pongs += 1
    """))
    out_path = tmp_path / "lint.sarif"
    code = main(
        ["--format", "sarif", "--output", str(out_path), str(target)],
        stream=io.StringIO(),
    )
    assert code == 1
    doc = json.loads(out_path.read_text())
    codes = {result["ruleId"] for result in doc["runs"][0]["results"]}
    assert any(c.startswith("DET") for c in codes)      # ast stage
    assert any(c.startswith("FLOW") for c in codes)     # flow stage
    assert "ASYNC001" in codes                          # aio stage
    assert "SM001" in codes                             # sm stage
    # Every SM result carries an anchored partial fingerprint.
    sm_results = [r for r in doc["runs"][0]["results"]
                  if r["ruleId"].startswith("SM")]
    assert sm_results
    for result in sm_results:
        assert "::SM" in result["partialFingerprints"]["zuglint/fingerprint"]
