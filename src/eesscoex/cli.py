"""Command-line front end.

Subcommands mirror the pipeline stages: link-budget, leakage, adoption,
deploy, simulate, sweep-guard, compliance.  A JSON config file
(--config) can pre-load any ScenarioConfig / CellConfig field; explicit
flags win.  Bad input exits 2 with a one-line message.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

from .adoption import BASELINE_MODEL, scale_scenario, gompertz, scenario_penetration
from .airlink import CellConfig
from .deployment import build_snapshot, ingest_counties, load_bundled_counties
from .filterbank import edge_psd_margin, leaked_psd_dbm_per_mhz
from .linkbudget import build_link_budget, load_sensor_catalog, lookup_sensor
from .reports import _json_safe, emit_guard_sweep, emit_leakage_table, emit_report, emit_rows
from .scenario import (
    CANONICAL_YEARS,
    ScenarioConfig,
    leakage_table,
    simulate,
    sweep_guard_bands,
)


# JSON value accepted for each config field type: (description, check).
_FIELD_CHECKS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: isinstance(v, (int, float))
            and not isinstance(v, bool) and math.isfinite(v)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}
_SECTIONS = {"scenario": ScenarioConfig, "cell": CellConfig}


def _load_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(payload) - set(_SECTIONS))
    if unknown:
        raise ValueError(f"{path}: unknown config section {unknown[0]!r}")
    return payload


def _section_kwargs(payload, section):
    """Keyword arguments for one config section, each key checked against its field."""
    values = payload.get(section, {})
    if not isinstance(values, dict):
        raise ValueError(f"config section {section!r} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(_SECTIONS[section])}
    kwargs = {}
    for key, value in values.items():
        if key not in types:
            raise ValueError(f"config section {section!r}: unknown key {key!r}")
        expected, check = _FIELD_CHECKS[types[key]]
        if not check(value):
            raise ValueError(f"config section {section!r}: key {key!r} must be "
                             f"{expected}, got {json.dumps(value)}")
        kwargs[key] = tuple(value) if types[key] is tuple else value
    return kwargs


def _build_configs(args, overrides):
    payload = _load_config_file(args.config) if getattr(args, "config", None) else {}
    scen_kwargs = _section_kwargs(payload, "scenario")
    for key, value in overrides.items():
        if value is not None:
            scen_kwargs[key] = value
    if getattr(args, "seed", None) is not None:
        scen_kwargs["seed"] = args.seed
    return ScenarioConfig(**scen_kwargs), CellConfig(**_section_kwargs(payload, "cell"))


def _print_json(payload):
    """Stdout JSON with the report files' encoding of non-finite floats."""
    print(json.dumps(_json_safe(payload), indent=2, sort_keys=True))


def _guard_grid(spec, cfg):
    """Guard widths of a lo:hi:step sweep, checked before any is generated."""
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError:
        raise ValueError(f"--guards must be lo:hi:step in MHz, got {spec!r}") from None
    if not step >= 0.1:
        raise ValueError(f"--guards step must be at least 0.1 MHz, the report's "
                         f"guard precision; got {step:g}")
    for guard in (lo, hi):
        dataclasses.replace(cfg, guard_mhz=guard)  # range check by ScenarioConfig
    if lo > hi:
        raise ValueError(f"--guards range {spec!r} is empty")
    guards = []
    g = lo
    while g <= hi + 1e-9:
        guards.append(round(g, 6))
        g += step
    return guards


def _counties(args):
    if getattr(args, "counties", None):
        if not getattr(args, "gazetteer", None):
            raise ValueError("--counties requires --gazetteer")
        result = ingest_counties(args.counties, args.gazetteer)
    else:
        result = load_bundled_counties()
    for diag in result.rejected:
        print(f"warning: line {diag.line}: {diag.reason}", file=sys.stderr)
    return result.records


def _cmd_link_budget(args):
    sensor = lookup_sensor(load_sensor_catalog(args.catalog), args.sensor)
    budget = build_link_budget(sensor, g_tx_db=args.g_tx, f_ghz=args.freq)
    _print_json(budget.to_dict())
    return 0


def _cmd_leakage(args):
    orders = [int(x) for x in args.orders.split(",")]
    guards = [float(x) for x in args.guards.split(",")]
    sensors = tuple(args.sensors.split(","))
    rows = leakage_table(orders=orders, guards_mhz=guards, sensor_ids=sensors,
                         ripple_db=args.ripple)
    if args.out_dir:
        paths = emit_leakage_table(rows, args.out_dir,
                                   header={"ripple_db": args.ripple})
        _print_json(paths)
    else:
        for row in rows:
            print(f"{row['sensor_id']},{row['order']},{row['guard_mhz']:.1f},"
                  f"{row['delta']:.6e},{row['delta_db']:.4f}")
    return 0


def _cmd_adoption(args):
    factor = args.scenario / 100.0
    model = scale_scenario(BASELINE_MODEL, factor)
    out = {
        "year": args.year,
        "factor": factor,
        "penetration_per_100": scenario_penetration(args.year, factor),
        "curve_per_100": gompertz(model, args.year),
    }
    _print_json(out)
    return 0


def _cmd_deploy(args):
    cfg, _ = _build_configs(args, {
        "year": args.year,
        "adoption_factor": args.scenario / 100.0 if args.scenario is not None else None,
        "guard_mhz": args.guard,
        "rate_bps": args.rate,
    })
    records = _counties(args)
    penetration = scenario_penetration(cfg.year, cfg.adoption_factor,
                                       use_published=cfg.use_published_penetration)
    snapshot = build_snapshot(records, cfg.year, cfg.adoption_factor,
                              args.rate if args.rate is not None else cfg.max_demand_bps,
                              cfg.eta_bps_per_hz, cfg.bandwidth_hz,
                              penetration_per_100=penetration)
    by_fips = {r.fips: r for r in records}
    rows = [
        {
            "fips": fips,
            "name": by_fips[fips].name,
            "state": by_fips[fips].state,
            "population": by_fips[fips].population,
            "land_area_km2": by_fips[fips].land_area_km2,
            "n_bs": count,
        }
        for fips, count in snapshot.counts.items()
    ]
    header = {
        "year": snapshot.year,
        "adoption_factor": snapshot.adoption_factor,
        "penetration_per_100": snapshot.penetration_per_100,
        "rate_bps": snapshot.rate_bps,
        "eta_bps_per_hz": snapshot.eta_bps_per_hz,
        "bandwidth_hz": snapshot.bandwidth_hz,
    }
    if args.out_dir:
        paths = emit_rows(rows, ["fips", "name", "state", "population",
                                 "land_area_km2", "n_bs"],
                          args.out_dir, "deployment", header=header)
        _print_json(paths)
    else:
        _print_json({"config": header, "rows": rows})
    return 0


def _cmd_simulate(args):
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        raise ValueError(f"--jobs must lie in [1, {cpus}] (the CPU count), got {args.jobs}")
    cfg, cell = _build_configs(args, {
        "year": args.year,
        "adoption_factor": args.scenario / 100.0 if args.scenario is not None else None,
        "guard_mhz": args.guard,
        "rate_bps": args.rate,
        "trials": args.trials,
    })
    records = _counties(args)
    report = simulate(cfg, cell=cell, counties=records, n_jobs=args.jobs)
    if args.out_dir:
        paths = emit_report(report, args.out_dir)
        _print_json(paths)
    else:
        _print_json({"config": report.config,
                     "worst_sensor": report.worst_sensor_id,
                     "rows": [dataclasses.asdict(r) for r in report.rows]})
    return 0


def _cmd_sweep_guard(args):
    if args.jobs != 1:
        raise ValueError(f"sweep-guard runs serially: --jobs must be 1, got {args.jobs}")
    cfg, cell = _build_configs(args, {"trials": args.trials})
    years = [int(y) for y in args.years.split(",")]
    guards = _guard_grid(args.guards, cfg)
    records = _counties(args)
    rows = sweep_guard_bands(cfg, years=years, guards_mhz=guards, cell=cell,
                             counties=records)
    header = cfg.header(cell)
    header.pop("year", None)
    header.pop("rate_bps", None)
    if args.out_dir:
        paths = emit_guard_sweep(rows, args.out_dir, header=header)
        _print_json(paths)
    else:
        for row in rows:
            print(f"{row.year},{row.guard_mhz:.1f},{row.max_rate_mbps}")
    return 0


def _cmd_compliance(args):
    cfg, _ = _build_configs(args, {"guard_mhz": args.guard})
    spec = cfg.filter_spec
    if args.order is not None:
        spec = dataclasses.replace(spec, order=args.order)
    eval_f = args.eval_freq if args.eval_freq is not None else 7.1245
    psd = leaked_psd_dbm_per_mhz(spec, args.ptx, eval_f)
    margin = edge_psd_margin(spec, args.ptx, eval_f, limit_dbm_mhz=args.limit)
    out = {
        "p_tx_dbw": args.ptx,
        "guard_mhz": cfg.guard_mhz,
        "order": spec.order,
        "eval_freq_ghz": eval_f,
        "leaked_psd_dbm_per_mhz": psd,
        "limit_dbm_per_mhz": args.limit,
        "margin_db": margin,
        "compliant": margin >= 0,
    }
    _print_json(out)
    return 0 if margin >= 0 else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eesscoex",
        description="Aggregate adjacent-band RFI from 7.125-7.4 GHz deployments "
                    "onto passive EESS radiometers",
    )
    parser.add_argument("--config", help="JSON file with 'scenario'/'cell' sections")
    parser.add_argument("--seed", type=int, help="master Monte Carlo seed")
    parser.add_argument("--out-dir", help="directory for CSV/JSON outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("link-budget", help="per-sensor propagation budget")
    p.add_argument("--sensor", required=True)
    p.add_argument("--freq", type=float, default=6.925, help="GHz")
    p.add_argument("--g-tx", type=float, default=-10.0, help="BS gain toward sensor, dB")
    p.add_argument("--catalog", help="alternate sensor catalog JSON")
    p.set_defaults(func=_cmd_link_budget)

    p = sub.add_parser("leakage", help="leakage fractions per order/guard/sensor")
    p.add_argument("--orders", default="3,5,7,9")
    p.add_argument("--guards", default="0,5,10,15,20,25,30,35,40,45,50")
    p.add_argument("--sensors", default="B1,B3,B4,B5,B7")
    p.add_argument("--ripple", type=float, default=0.2)
    p.set_defaults(func=_cmd_leakage)

    p = sub.add_parser("adoption", help="penetration for a year and growth scenario")
    p.add_argument("--scenario", type=float, default=100.0, help="percent of baseline b3")
    p.add_argument("--year", type=int, required=True)
    p.set_defaults(func=_cmd_adoption)

    p = sub.add_parser("deploy", help="per-county BS counts")
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--rate", type=float, help="sizing rate per user, bps")
    p.add_argument("--scenario", type=float, help="percent of baseline b3")
    p.add_argument("--guard", type=float, help="guard band, MHz")
    p.add_argument("--counties", help="county CSV (fips,name,state,rucc_code,population)")
    p.add_argument("--gazetteer", help="land-area CSV (fips,land_area_km2)")
    p.set_defaults(func=_cmd_deploy)

    p = sub.add_parser("simulate", help="aggregate RFI per sensor")
    p.add_argument("--year", type=int)
    p.add_argument("--rate", type=float, help="user rate, bps")
    p.add_argument("--scenario", type=float, help="percent of baseline b3")
    p.add_argument("--guard", type=float, help="guard band, MHz")
    p.add_argument("--trials", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--counties")
    p.add_argument("--gazetteer")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep-guard", help="max feasible rate per (year, guard)")
    p.add_argument("--years", default=",".join(str(y) for y in CANONICAL_YEARS))
    p.add_argument("--guards", default="0:50:5", help="lo:hi:step in MHz")
    p.add_argument("--trials", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--counties")
    p.add_argument("--gazetteer")
    p.set_defaults(func=_cmd_sweep_guard)

    p = sub.add_parser("compliance", help="emission-mask margin at the band edge")
    p.add_argument("--ptx", type=float, default=-5.0, help="total transmit power, dBW")
    p.add_argument("--guard", type=float, default=25.0)
    p.add_argument("--order", type=int)
    p.add_argument("--eval-freq", type=float, help="GHz; default 7.1245")
    p.add_argument("--limit", type=float, default=-13.0, help="dBm/MHz")
    p.set_defaults(func=_cmd_compliance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
