import importlib
import pkgutil

import cyarith
from conftest import CACHES


def test_the_autouse_fixture_clears_every_cache():
    # walk every cyarith module for objects with a cache_clear; a cache the
    # fixture does not clear would carry state from one test into the next
    found = {}
    for info in pkgutil.iter_modules(cyarith.__path__):
        module = importlib.import_module(f"cyarith.{info.name}")
        for name, value in vars(module).items():
            if not isinstance(value, type) and callable(getattr(value, "cache_clear", None)):
                found[id(value)] = f"cyarith.{info.name}.{name}"
    missing = sorted(name for key, name in found.items() if key not in {id(c) for c in CACHES})
    assert not missing, f"conftest.CACHES misses {missing}"
    assert len(found) == len(CACHES)
