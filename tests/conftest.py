import pytest

from ulrichcert import euler, identities, symmetric


def _lru_caches():
    """Every ``lru_cache`` reachable from the identity layer's modules."""
    for module in (identities, euler, symmetric):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                yield value


@pytest.fixture(autouse=True)
def clear_caches():
    """Clear every ``lru_cache`` in identities, euler and symmetric before and
    after each test, so a value cached from a faulted core or table never
    reaches a later test.  A test that faults something mid-way asks for
    this fixture by name and calls it to clear them again."""

    def clear() -> None:
        for cached in _lru_caches():
            cached.cache_clear()

    clear()
    yield clear
    clear()
