"""The three benchmark workloads.

Each workload has a `setup` (what a user pays before the first result:
import, county and catalog load, and on compose-grid the power table) and
a timed `run` that leaves its report in an output directory.  `run`
returns the per-point latencies in milliseconds.  The package is reached
only through `eesscoex.cli.main`, public `eesscoex.scenario` functions and
`eesscoex.reports.emit_report`; every lookup happens at call time so the
tracer's wrappers see it.
"""

import dataclasses
import json
import time

# Trial counts keep one workload process at a few seconds on one core.
SIMULATE_TRIALS = 200
SWEEP_TRIALS = 20
TABLE_TRIALS = 4

GUARDS_MHZ = tuple(float(g) for g in range(0, 55, 5))
RATES_MBPS = (100, 200, 300, 400, 500)
SWEEP_YEARS = (2030, 2035, 2040)
GRID_YEARS = (2030, 2035, 2040)
GRID_FACTORS = (0.5, 1.0, 1.5)


@dataclasses.dataclass(frozen=True)
class Params:
    """Sizes of one workload; the benchmark uses the defaults."""

    simulate_trials: int = SIMULATE_TRIALS
    sweep_trials: int = SWEEP_TRIALS
    table_trials: int = TABLE_TRIALS
    grid_years: tuple = GRID_YEARS


class Workload:
    name = ""
    report = ""  # output file the check reads
    sizes = ()  # the Params fields this workload uses

    def __init__(self, pkg, seed: int, params: Params = Params()):
        self.pkg = pkg
        self.seed = seed
        self.params = params

    def params_dict(self) -> dict:
        """The sizes this workload runs at, as JSON data."""
        return json.loads(json.dumps({k: getattr(self.params, k) for k in self.sizes}))

    def setup(self):
        self.counties = self.pkg.scenario.load_bundled_counties().records
        self.catalog = self.pkg.scenario.load_sensor_catalog()

    def points(self):
        """Expected (year, adoption factor, guard, rate) per report point."""
        raise NotImplementedError

    def run(self, out_dir, call=None) -> list:
        raise NotImplementedError

    def _cli(self, out_dir, args, call):
        argv = ["--seed", str(self.seed), "--out-dir", str(out_dir)] + args
        start = time.perf_counter()
        main = self.pkg.cli.main
        code = call("cli.main", main, argv) if call else main(argv)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        if code != 0:
            raise RuntimeError(f"eesscoex {' '.join(argv)} exited {code}")
        return [elapsed_ms]


class SimulatePoint(Workload):
    name = "simulate-point"
    report = "rfi_report.json"
    sizes = ("simulate_trials",)

    def points(self):
        return [(2040, 1.0, 25.0, 500.0)]

    def run(self, out_dir, call=None):
        return self._cli(out_dir, [
            "simulate", "--year", "2040", "--rate", "500e6", "--guard", "25",
            "--trials", str(self.params.simulate_trials), "--jobs", "1"], call)


class SweepGuard(Workload):
    name = "sweep-guard"
    report = "guard_sweep.json"
    sizes = ("sweep_trials",)

    def points(self):
        return [(y, 1.0, g, None) for y in SWEEP_YEARS for g in GUARDS_MHZ]

    def run(self, out_dir, call=None):
        return self._cli(out_dir, [
            "sweep-guard", "--years", ",".join(map(str, SWEEP_YEARS)),
            "--guards", "0:50:5", "--trials", str(self.params.sweep_trials),
            "--jobs", "1"], call)


class ComposeGrid(Workload):
    name = "compose-grid"
    report = "rfi_report.json"
    sizes = ("table_trials", "grid_years")

    def setup(self):
        super().setup()
        scenario = self.pkg.scenario
        self.cell = scenario.CellConfig()
        self.base = scenario.ScenarioConfig(seed=self.seed, trials=self.params.table_trials)
        channels = scenario.draw_channels(self.cell, self.seed, self.params.table_trials)
        # max_feasible_rate fills the cache with one power batch per (guard, rate).
        self.table = {}
        for guard in GUARDS_MHZ:
            scenario.max_feasible_rate(
                dataclasses.replace(self.base, guard_mhz=guard), rate_grid_mbps=RATES_MBPS,
                cell=self.cell, counties=self.counties, channels=channels,
                catalog=self.catalog, power_cache=self.table)

    def points(self):
        return [(y, f, g, float(r)) for y in self.params.grid_years for f in GRID_FACTORS
                for g in GUARDS_MHZ for r in RATES_MBPS]

    def run(self, out_dir, call=None):
        scenario = self.pkg.scenario
        reports, latencies_ms = [], []
        for year, factor, guard, rate in self.points():
            cfg = dataclasses.replace(self.base, year=year, adoption_factor=factor,
                                      guard_mhz=guard, rate_bps=rate * 1e6)
            start = time.perf_counter()
            reports.append(scenario.simulate(cfg, cell=self.cell, counties=self.counties,
                                             catalog=self.catalog,
                                             power=self.table[(guard, int(rate))]))
            latencies_ms.append((time.perf_counter() - start) * 1e3)
        self.pkg.reports.emit_report(reports, str(out_dir))
        return latencies_ms


WORKLOADS = {w.name: w for w in (SimulatePoint, SweepGuard, ComposeGrid)}
