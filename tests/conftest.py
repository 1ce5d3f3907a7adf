import pytest

from eesscoex import scenario
from eesscoex.deployment import load_bundled_counties
from eesscoex.linkbudget import load_sensor_catalog


def _scenario_caches() -> list:
    """Every per-process cache of the scenario module, found by its `cache_clear`."""
    return [value for value in vars(scenario).values() if hasattr(value, "cache_clear")]


def _clear_scenario_caches():
    for cache in _scenario_caches():
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _cold_scenario_caches():
    """Every test starts with scenario's per-process caches empty, so call
    counts and cold answers do not depend on which tests ran before."""
    _clear_scenario_caches()


@pytest.fixture
def clear_scenario_caches():
    """Empties scenario's per-process caches when called."""
    return _clear_scenario_caches


@pytest.fixture
def scenario_caches():
    """The scenario module's per-process caches."""
    return _scenario_caches()


@pytest.fixture(scope="session")
def catalog():
    return load_sensor_catalog()


@pytest.fixture(scope="session")
def counties():
    return load_bundled_counties().records
