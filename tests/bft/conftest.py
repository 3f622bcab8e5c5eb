"""One battery, both backends.

A test that builds its cluster through ``make_cluster`` does not choose the
replica class, so it is part of the backend-independent contract.  It runs on
PBFT in the module that defines it; ``test_linear.py`` overrides
``replica_cls`` and adopts every such test (``harness.contract_tests``), so
each (backend, case) pair is reported on its own and under a stable name.
"""

from functools import partial

import pytest

from repro.bft import PbftReplica

from tests.bft.harness import BftCluster


@pytest.fixture
def replica_cls():
    return PbftReplica


@pytest.fixture
def make_cluster(replica_cls):
    return partial(BftCluster, replica_cls=replica_cls)
