import pytest

from cyarith.arith import _prime_table
from cyarith.arrangement import _minor_scan, intersection_poset
from cyarith.cmforms import normalize_prime_element
from cyarith.qseries import _unit_power_list
from cyarith.registry import load_bundled_arrangement
from cyarith.tensor import tensor_sectors

#: every cache in cyarith; test_caches.py fails when one is missing here
CACHES = (_prime_table, _minor_scan, normalize_prime_element, _unit_power_list, tensor_sectors)


@pytest.fixture(autouse=True)
def cold_caches():
    # every test starts with empty caches, so a patched is_normalized,
    # _cornacchia, is_prime or _kronecker_mul is never masked by a trace,
    # power or minor scan an earlier test computed
    for cache in CACHES:
        cache.cache_clear()


@pytest.fixture(scope="session")
def ahlgren():
    return load_bundled_arrangement("ahlgren")


@pytest.fixture(scope="session")
def ahlgren_poset(ahlgren):
    return intersection_poset(ahlgren)
