import pytest

from invgen.gf import gf_for_q
from invgen.oracle import OracleSession
from invgen.psl2 import inventory


@pytest.fixture(scope="session")
def sessions():
    """q -> the oracle session of PSL(2,q), built once per test run."""
    cache = {}

    def get(q):
        if q not in cache:
            cache[q] = OracleSession(inventory(gf_for_q(q)))
        return cache[q]

    return get
