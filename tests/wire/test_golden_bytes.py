"""Golden-bytes regression: the wire format is stable, checked-in API.

Round-trip tests (``tests/lint/test_registry_roundtrip.py``) prove
encode/decode are inverses *of each other* — they pass equally well
before and after an accidental format change.  This test pins the actual
bytes: every registered type is encoded from a frozen fixture
(``tests/wire/golden_bytes.py``) and compared against checked-in hex
(``golden_bytes.json``), so any codec change fails loudly and must be
made deliberately.  To regenerate after a *deliberate* format change::

    PYTHONPATH=src python tests/wire/golden_bytes.py --write

CI additionally runs ``tests/wire/golden_bytes.py --check``, the
standalone form of the same comparison.

That sizes agree with these bytes is ``test_size_algebra.py``'s job.
"""

import pytest

from repro.wire import encode_message
from repro.wire import registered_types

from tests.wire.golden_bytes import (
    FIXTURES,
    current_bytes,
    diff_golden,
    load_golden,
    main,
)


def test_every_registered_type_has_a_golden_fixture():
    missing = [cls.__name__ for cls in registered_types().values() if cls not in FIXTURES]
    assert not missing, (
        f"registered message types without golden fixtures: {missing}; "
        "add a factory to FIXTURES and regenerate golden_bytes.json"
    )
    golden = load_golden()
    stale = [cls.__name__ for cls in FIXTURES if cls.__name__ not in golden]
    assert not stale, f"fixtures missing from golden_bytes.json: {stale}; regenerate it"


@pytest.mark.parametrize(
    "tag,cls",
    sorted(registered_types().items()),
    ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
)
def test_encoded_bytes_match_checked_in_golden(tag, cls):
    message = FIXTURES[cls]()
    encoded = encode_message(message)
    expected = load_golden()[cls.__name__]
    assert encoded.hex() == expected, (
        f"{cls.__name__} wire bytes changed; if this is a deliberate format "
        "change, regenerate tests/wire/golden_bytes.json (see module docstring) "
        "and call it out in the change description — wire tags and framing are "
        "stable API"
    )


def test_check_helper_agrees_with_the_checked_in_file(capsys):
    assert diff_golden() == []
    assert main(["--check"]) == 0
    assert "OK" in capsys.readouterr().out


def test_check_helper_reports_drift(tmp_path, monkeypatch, capsys):
    import tests.wire.golden_bytes as gb

    drifted = dict(current_bytes())
    name = sorted(drifted)[0]
    drifted[name] = "00" + drifted[name][2:]
    bad = tmp_path / "golden_bytes.json"
    bad.write_text(__import__("json").dumps(drifted))
    monkeypatch.setattr(gb, "GOLDEN_PATH", bad)
    assert gb.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert name in err
    assert "--write" in err
