"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import GUARDS_MHZ as GUARDS  # noqa: E402
from workloads import WORKLOADS, Params  # noqa: E402

TINY = Params(simulate_trials=2, sweep_trials=2, table_trials=2, grid_years=(2030, 2040))


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def _run_once(pkg, name, seed, params, out_dir):
    workload = WORKLOADS[name](pkg, seed, params)
    workload.setup()
    workload.run(out_dir)
    return workload


def _perturb(out_dir, report, edit):
    path = Path(out_dir) / report
    payload = json.loads(path.read_text())
    edit(payload["rows"])
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    spec = run.load_spec()
    result, environment, errors = run.summarize(name, 0, 0.0, trace, spec, TINY)
    assert errors == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else run.MIN_RUNS)
    group = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group}
    assert environment["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif name == "compose-grid":
        assert result["metrics"]["precoder.solve_power_min.calls"]["value"] == 0
        assert result["metrics"]["filterbank.leakage_fraction.calls"]["value"] == 2 * 3 * 55 * 5
    elif name == "sweep-guard":
        # Two channel draws shared by 55 power batches.
        assert result["metrics"]["precoder.distinct_channel_share"]["value"] == 2 / 110


def test_reference_check_rejects_shift_of_one_hundredth_db(pkg, tmp_path):
    workload = _run_once(pkg, "simulate-point", 0, Params(), tmp_path)
    assert check.load_reference(workload) is not None
    assert check.check(workload, tmp_path) == []

    def shift(rows):  # keeps the composition identity, so only the reference sees it
        rows[0]["rfi_dbw"] += 0.01
        rows[0]["mean_p_tx_dbw"] += 0.01

    _perturb(tmp_path, workload.report, shift)
    assert check.check(workload, tmp_path)


def test_identity_check_rejects_shift_at_any_seed(pkg, tmp_path):
    workload = _run_once(pkg, "compose-grid", 3, TINY, tmp_path)
    assert check.load_reference(workload) is None
    assert check.check(workload, tmp_path) == []

    def shift(rows):
        rows[-1]["rfi_dbw"] -= 0.01

    _perturb(tmp_path, workload.report, shift)
    assert any("composed" in e for e in check.check(workload, tmp_path))


def test_sweep_check_rejects_rate_rising_with_year(pkg, tmp_path):
    workload = _run_once(pkg, "sweep-guard", 3, TINY, tmp_path)
    assert check.check(workload, tmp_path) == []

    def rise(rows):  # the last year beats the one before at the narrowest guard
        rows[2 * len(GUARDS)]["max_rate_mbps"] = rows[len(GUARDS)]["max_rate_mbps"] + 100

    _perturb(tmp_path, workload.report, rise)
    assert any("rises with the year" in e for e in check.check(workload, tmp_path))


def test_sweep_check_rejects_rate_off_the_grid(pkg, tmp_path):
    workload = _run_once(pkg, "sweep-guard", 3, TINY, tmp_path)

    def off_grid(rows):
        rows[0]["max_rate_mbps"] = 150

    _perturb(tmp_path, workload.report, off_grid)
    assert any("not on the grid" in e for e in check.check(workload, tmp_path))


def test_guard_falls_are_counted_not_failed(pkg, tmp_path):
    workload = _run_once(pkg, "sweep-guard", 3, TINY, tmp_path)
    before = check.guard_falls(workload, tmp_path)["guard_falls"]

    def fall(rows):  # the last year's widest guard drops below its neighbour
        rows[-1]["max_rate_mbps"] = rows[-2]["max_rate_mbps"] - 100

    _perturb(tmp_path, workload.report, fall)
    assert check.check(workload, tmp_path) == []
    assert check.guard_falls(workload, tmp_path)["guard_falls"] == before + 1


def test_self_time_subtracts_direct_children():
    spans = [
        (1, 0, "run", 0.0, 10.0),
        (2, 1, "cli.main", 0.0, 9.0),
        (3, 2, "scenario.simulate", 1.0, 8.0),
        (4, 3, "precoder.solve_power_min", 2.0, 5.0),
        (5, 3, "precoder.solve_power_min", 5.0, 7.0),
    ]
    counts = {"precoder.iterations": [3, 5], "precoder.unconverged": 0,
              "precoder.infeasible": 1, "precoder.distinct_channels": 1,
              "filterbank.grid_points": 0, "filterbank.distinct_inputs": 0,
              "reports.bytes_written": 0, "airlink.channel_bytes_held": 0}
    m = layer_metrics({"spans": spans, "counts": counts})
    assert m["cli.main.self_s"] == 2.0
    assert m["scenario.simulate.self_s"] == 2.0
    assert m["precoder.solve_power_min.total_s"] == 5.0
    assert m["precoder.distinct_channel_share"] == 0.5
    assert m["precoder.iterations_mean"] == 4.0
    assert m["trace.run_s"] == 10.0


def test_fails_without_package_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate-point",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
