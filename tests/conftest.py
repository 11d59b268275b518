import pytest

from cyarith.arrangement import intersection_poset
from cyarith.cmforms import normalized_trace
from cyarith.registry import load_bundled_arrangement


@pytest.fixture(autouse=True)
def cold_trace_cache():
    # every test starts without cached traces, so a patched is_normalized
    # or _cornacchia is never masked by a trace an earlier test computed
    normalized_trace.cache_clear()


@pytest.fixture(scope="session")
def ahlgren():
    return load_bundled_arrangement("ahlgren")


@pytest.fixture(scope="session")
def ahlgren_poset(ahlgren):
    return intersection_poset(ahlgren)
