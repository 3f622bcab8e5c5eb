"""Golden zuglint findings: every rule fires on its corpus entry, as recorded.

The corpus and the checked-in findings live in ``golden_findings.py`` and
``golden_findings.json``.  This file checks the corpus under pytest; CI
runs ``tests/lint/golden_findings.py --check``, which also lints the
repository's own trees against the same file.
"""

import pytest

from repro.lint import all_rules

from tests.lint.golden_findings import CORPUS, TREES, corpus_findings, load_golden


def test_every_registered_code_has_a_corpus_entry():
    covered = {name.split(".")[0] for name in CORPUS}
    missing = sorted(rule.code for rule in all_rules() if rule.code not in covered)
    assert not missing, f"rule codes without a corpus entry: {missing}"


def test_golden_file_records_the_corpus_and_every_tree():
    golden = load_golden()
    assert sorted(golden["corpus"]) == sorted(CORPUS)
    assert sorted(golden["trees"]) == sorted(TREES)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_entry_fires_its_code_exactly_as_recorded(name):
    findings = corpus_findings(name)
    assert name.split(".")[0] in {finding["code"] for finding in findings}
    assert findings == load_golden()["corpus"][name], (
        f"findings on corpus entry {name} drifted from golden_findings.json; "
        "after a deliberate change to what a rule reports, regenerate it "
        "(see tests/lint/golden_findings.py)"
    )
