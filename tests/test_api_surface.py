"""The package's public surface: exported names exist, and the entry
points the benchmark (perfbench/workloads.py) calls keep their keywords."""

import importlib
import inspect
import pkgutil

import eesscoex
from eesscoex import scenario


def test_all_names_resolve():
    for info in pkgutil.iter_modules(eesscoex.__path__):
        module = importlib.import_module(f"eesscoex.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def test_scenario_keeps_benchmark_entry_points():
    for name in ("CellConfig", "ScenarioConfig", "draw_channels",
                 "load_bundled_counties", "load_sensor_catalog"):
        assert callable(getattr(scenario, name)), name
    simulate = inspect.signature(scenario.simulate).parameters
    assert {"cell", "counties", "catalog", "power"} <= set(simulate)
    max_rate = inspect.signature(scenario.max_feasible_rate).parameters
    assert {"rate_grid_mbps", "cell", "counties", "channels", "catalog",
            "power_cache"} <= set(max_rate)
    assert list(inspect.signature(scenario.draw_channels).parameters) == [
        "cell", "seed", "trials"]
