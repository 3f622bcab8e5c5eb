"""Fingerprint stability of flow findings.

Flow findings carry structural anchors (function keys, class names), so
their fingerprints must survive the two edits that invalidate
line-number fingerprints: inserting unrelated lines above the finding
and reordering the files of the run.
"""

import textwrap

from repro.lint import lint_sources

CRATE = {
    "src/repro/core/stamp.py": """
    import time

    def _now_us():
        return int(time.time() * 1e6)

    class Stamp:
        def encode(self, writer):
            writer.put_uint(_now_us())
            return writer.getvalue()
    """,
    "src/repro/bft/crate.py": """
    class Ping:
        pass

    class Pong:
        pass

    class Backend:
        def on_message(self, src, message):
            if isinstance(message, Ping):
                self._on_ping(src, message)
            elif isinstance(message, Pong):
                self._on_ping(src, message)

        def _on_ping(self, src, message):
            self._seen[message.seq] = message
            if not message.verify(self.keystore):
                return
    """,
}

SELECT = ["FLOW001", "FLOW002"]


def run(sources):
    return lint_sources(
        {path: textwrap.dedent(text) for path, text in sources.items()},
        select=SELECT,
    )


def fingerprints(sources):
    return sorted(finding.fingerprint for finding in run(sources))


def test_crate_produces_one_finding_per_flow_rule():
    codes = sorted({finding.code for finding in run(CRATE)})
    assert codes == SELECT


def test_fingerprints_survive_unrelated_line_insertion():
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


def test_fingerprints_survive_file_reordering():
    items = [(path, textwrap.dedent(text)) for path, text in CRATE.items()]
    forward = sorted(f.fingerprint for f in lint_sources(items, select=SELECT))
    backward = sorted(
        f.fingerprint for f in lint_sources(items[::-1], select=SELECT)
    )
    assert forward == backward
