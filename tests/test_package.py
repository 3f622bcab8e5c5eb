"""The top-level package: sixteen re-exports, none of them paid for at import."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).parent.parent)


def test_every_reexport_resolves_to_the_object_its_home_module_defines():
    assert len(repro.__all__) == 16 and len(set(repro.__all__)) == 16
    for name in repro.__all__:
        home = importlib.import_module(repro._LAZY[name])
        assert getattr(repro, name) is getattr(home, name)
        assert vars(repro)[name] is getattr(home, name)  # kept: resolved once
    assert set(repro.__all__) <= set(dir(repro))
    assert "__version__" in dir(repro)

    from repro import ExportScenario, SimulatedCluster, check_requirements  # noqa: F401


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name


def test_importing_the_cluster_does_not_import_export_or_jru():
    code = (
        "import sys\n"
        # Site ``.pth`` files may load stdlib modules such as ``threading``
        # at startup; only what the import adds is counted, so a module
        # already loaded before it cannot be checked on such an interpreter.
        "before = set(sys.modules)\n"
        "import repro.scenarios.cluster\n"
        "added = set(sys.modules) - before\n"
        "loaded = sorted(name for name in added\n"
        "                if name.split('.')[:2] in (['repro', 'export'], ['repro', 'jru']))\n"
        "print(loaded)\n"
        "live = ('asyncio', 'multiprocessing', 'threading',\n"
        "        'repro.runtime.asyncio_runtime', 'repro.runtime.multiprocess')\n"
        "print(sorted(name for name in live if name in added))\n"
        "from repro import ExportScenario, check_requirements\n"
        "print('repro.export.scenario' in sys.modules, 'repro.jru' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    # Neither does it load a live runtime or what one runs on: ``RUNTIMES``
    # names tcp and mp, and imports them when one is asked for.
    assert done.stdout.splitlines() == ["[]", "[]", "True True"]
