"""The one field check every input dataclass runs when it is built."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from eesscoex._fields import _BOUNDS
from eesscoex.adoption import AdoptionModel
from eesscoex.airlink import CellConfig
from eesscoex.deployment import CountyRecord
from eesscoex.filterbank import FilterSpec
from eesscoex.linkbudget import load_sensor_catalog
from eesscoex.scenario import ScenarioConfig

B5 = load_sensor_catalog()["B5"]
LOS_ANGELES = CountyRecord(fips="06037", name="Los Angeles", state="CA", rucc_code=1,
                           population=10_000_000, land_area_km2=10510.0)
VALID = [ScenarioConfig(), CellConfig(), FilterSpec(), B5, LOS_ANGELES, AdoptionModel()]
FLOAT_FIELDS = [(obj, f.name) for obj in VALID for f in dataclasses.fields(obj)
                if f.type is float]
BOUNDS = [(obj, f.name, op, limit) for obj in VALID for f in dataclasses.fields(obj)
          for op, limit in f.metadata.get("bounds", {}).items()]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("obj, name", FLOAT_FIELDS,
                         ids=[f"{type(o).__name__}.{n}" for o, n in FLOAT_FIELDS])
def test_non_finite_float_field_is_rejected(obj, name, value):
    with pytest.raises(ValueError, match=f"'{name}' must be a finite number"):
        dataclasses.replace(obj, **{name: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_number_in_a_tuple_is_rejected(value):
    with pytest.raises(ValueError, match="'channel_span_ghz'"):
        dataclasses.replace(B5, channel_span_ghz=(6.725, value))


@pytest.mark.parametrize("obj, name, value", [
    (ScenarioConfig(), "guard_mhz", True),
    (ScenarioConfig(), "trials", 2.0),
    (ScenarioConfig(), "trials", "5"),
    (ScenarioConfig(), "sensor_ids", ("B5", 5)),
    (ScenarioConfig(), "sensor_ids", ["B5"]),
    (ScenarioConfig(), "use_published_gain", 1),
    (ScenarioConfig(), "rate_bps", 10**400),
    (CellConfig(), "distance_mode", None),
    (B5, "channel_span_ghz", (6.725, 7.0, 7.125)),
    (LOS_ANGELES, "fips", 6037),
])
def test_wrong_type_is_rejected(obj, name, value):
    with pytest.raises(ValueError, match=f"'{name}' must be "):
        dataclasses.replace(obj, **{name: value})


def test_integers_and_numpy_scalars_pass_as_numbers():
    cfg = ScenarioConfig(guard_mhz=np.float64(20.0), rate_bps=300_000_000,
                         trials=np.int64(4), p_bs_dbw=np.float32(-5.0))
    assert cfg.guard_mhz == 20.0 and cfg.trials == 4
    assert FilterSpec(order=np.int32(5)).order == 5


OUTSIDE = {"ge": lambda limit: limit - 1, "gt": lambda limit: limit,
           "le": lambda limit: limit + 1, "lt": lambda limit: limit}


@pytest.mark.parametrize("obj, name, op, limit", BOUNDS,
                         ids=[f"{type(o).__name__}.{n}-{op}" for o, n, op, _ in BOUNDS])
def test_value_just_outside_a_bound_is_rejected(obj, name, op, limit):
    message = f"'{name}' must be {_BOUNDS[op][1]} {limit:g}, got"
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(obj, **{name: OUTSIDE[op](limit)})


def test_readme_lists_every_bounded_field_with_its_bound():
    declared = {}
    for obj, name, op, limit in BOUNDS:
        declared.setdefault((type(obj).__name__, name), []).append(
            f"{_BOUNDS[op][1]} {limit:g}")
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|$", readme, flags=re.M)
    assert {(cls, name): bound.strip() for cls, name, bound in rows} == {
        key: ", ".join(bounds) for key, bounds in declared.items()}
