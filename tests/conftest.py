import os

import pytest

from invgen.gf import gf_for_q
from invgen.oracle import OracleSession
from invgen.psl2 import inventory
from helpers import label_census


def pytest_configure(config):
    config.addinivalue_line("markers", "extended: runs only under INVGEN_EXTENDED=1")


def pytest_collection_modifyitems(config, items):
    """Skip the tests marked ``extended`` unless INVGEN_EXTENDED=1: the one
    place the tests read the switch."""
    if os.environ.get("INVGEN_EXTENDED") != "1":
        skip = pytest.mark.skip(reason="needs INVGEN_EXTENDED=1")
        for item in items:
            if item.get_closest_marker("extended"):
                item.add_marker(skip)


@pytest.fixture(scope="session")
def sessions():
    """q -> the oracle session of PSL(2,q), built once per test run."""
    cache = {}

    def get(q):
        if q not in cache:
            cache[q] = OracleSession(inventory(gf_for_q(q)))
        return cache[q]

    return get


@pytest.fixture(scope="module")
def record(q):
    """The label-level record of PSL(2,q) (``helpers.label_census``).  Tests
    that read it take q as a module-scoped parameter, so pytest runs them
    grouped by q and builds one record per q for the module."""
    return label_census(gf_for_q(q))
