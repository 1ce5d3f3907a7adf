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

from ._fields import from_json, unique_keys
from .adoption import scenario_penetration
from .airlink import CellConfig
from .deployment import build_snapshot, ingest_counties, load_bundled_counties
from .filterbank import (DEFAULT_SPURIOUS_LIMIT_DBM_MHZ, EDGE_EVAL_FREQ_GHZ,
                         edge_psd_margin, leaked_psd_dbm_per_mhz)
from .linkbudget import (DEFAULT_EVAL_FREQ_GHZ, build_link_budget, load_sensor_catalog,
                         lookup_sensor)
from .reports import _json_safe, emit_guard_sweep, emit_report, emit_rows, format_row, row_dict
from .scenario import (
    CANONICAL_YEARS,
    GUARD_GRID_MHZ,
    LEAKAGE_ORDERS,
    ScenarioConfig,
    leakage_table,
    simulate,
    sweep_guard_bands,
)

# Commands that only print; --out-dir would silently write nothing.
_PRINT_ONLY = ("link-budget", "adoption", "compliance")


_SECTIONS = {"scenario": ScenarioConfig, "cell": CellConfig}
_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig)}


def _load_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh, object_pairs_hook=unique_keys)
        except ValueError as exc:  # undecodable text, bad JSON or a duplicate key
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(payload) - set(_SECTIONS))
    if unknown:
        raise ValueError(f"{path}: unknown config section {unknown[0]!r}")
    return payload


def _section_config(payload, section):
    """The config one section of the --config file sets, checked on its own so
    that a bad value in the file fails under any flags."""
    values = payload.get(section, {})
    if not isinstance(values, dict):
        raise ValueError(f"config section {section!r} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(_SECTIONS[section])}
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ValueError(f"config section {section!r}: unknown key {unknown[0]!r}")
    try:  # a JSON 25 reads as 25.0, as --guard 25 does
        return _SECTIONS[section](**{k: from_json(types[k], v) for k, v in values.items()})
    except ValueError as exc:
        raise ValueError(f"config section {section!r}: {exc}") from None


def _build_configs(args):
    """Scenario and cell configs: a flag given for a field (its dest is the
    field's name), else the --config file, else the default."""
    payload = _load_config_file(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items()
             if key in _SCENARIO_FIELDS and value is not None}
    return (dataclasses.replace(_section_config(payload, "scenario"), **flags),
            _section_config(payload, "cell"))


def _print_json(payload):
    """Stdout JSON with the report files' encoding of non-finite floats."""
    print(json.dumps(_json_safe(payload), indent=2, sort_keys=True))


def finite(text):
    """A float flag's value, which must be finite."""
    value = float(text)  # argparse reports a ValueError as "invalid finite value"
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def percent(text):
    """A --scenario percentage of baseline growth, as the adoption_factor it sets."""
    return finite(text) / 100.0


def _comma_list(item):
    """The type of a flag that takes a comma-separated list of `item` values."""
    def parse(text):
        try:
            values = tuple(item(x) for x in text.split(","))
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                f"must be comma-separated {item.__name__} values, got {text!r}") from None
        if len(set(values)) < len(values):  # a repeat would repeat its report rows
            raise argparse.ArgumentTypeError(f"must not repeat a value, got {text!r}")
        return values
    return parse


def _guard_grid(spec):
    """Guard widths of a lo:hi:step sweep in MHz, checked before any is generated."""
    try:
        lo, hi, step = (finite(x) for x in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be lo:hi:step in MHz, got {spec!r}") from None
    if not step >= 0.1:
        raise argparse.ArgumentTypeError(f"step must be at least 0.1 MHz, the report's "
                                         f"guard precision; got {step:g}")
    try:
        for guard in (lo, hi):
            ScenarioConfig(guard_mhz=guard)  # the field's declared bounds
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range {spec!r} is empty")
    guards = []
    g = lo
    while g <= hi + 1e-9:
        guards.append(round(g, 6))
        g += step
    return guards


def _counties(args):
    if args.gazetteer and not args.counties:
        raise ValueError("--gazetteer requires --counties")
    if args.counties:
        if not args.gazetteer:
            raise ValueError("--counties requires --gazetteer")
        result = ingest_counties(args.counties, args.gazetteer)
    else:
        result = load_bundled_counties()
    if not result.records:  # one error line, not a warning per rejected row
        reason = "no metro county with a land area"
        if result.rejected:
            first = result.rejected[0]
            reason += (f"; {len(result.rejected)} rows rejected, the first at line "
                       f"{first.line}: {first.reason}")
        raise ValueError(f"{args.counties}: {reason}")
    for diag in result.rejected:
        print(f"warning: line {diag.line}: {diag.reason}", file=sys.stderr)
    return result.records


def _cmd_link_budget(args, cfg, cell):
    sensor = lookup_sensor(load_sensor_catalog(args.catalog), args.sensor)
    budget = build_link_budget(sensor, g_tx_db=cfg.g_tx_db, f_ghz=args.freq)
    _print_json(dataclasses.asdict(budget))
    return 0


def _cmd_leakage(args, cfg, cell):
    rows = leakage_table(cfg, args.orders, args.guards)
    if args.out_dir:
        _print_json(emit_rows(rows, args.out_dir, "leakage", header={
            "ripple_db": cfg.ripple_db,
            "ref_bandwidth_mhz": cfg.ref_bandwidth_mhz,
        }))
    else:
        for row in rows:
            print(",".join(format_row(row)))
    return 0


def _cmd_adoption(args, cfg, cell):
    out = {
        "year": cfg.year,
        "factor": cfg.adoption_factor,
        "penetration_per_100": cfg.penetration_per_100,
        "curve_per_100": scenario_penetration(cfg.year, cfg.adoption_factor,
                                              use_published=False),
    }
    _print_json(out)
    return 0


def _cmd_deploy(args, cfg, cell):
    records = _counties(args)
    header = {
        "year": cfg.year,
        "adoption_factor": cfg.adoption_factor,
        "penetration_per_100": cfg.penetration_per_100,
        "rate_bps": cfg.max_demand_bps,
        "eta_bps_per_hz": cfg.eta_bps_per_hz,
        "bandwidth_hz": cfg.bandwidth_hz,
    }
    snapshot = build_snapshot(records, cfg.max_demand_bps, cfg.eta_bps_per_hz,
                              cfg.bandwidth_hz, header["penetration_per_100"])
    rows = [
        {
            "fips": record.fips,
            "name": record.name,
            "state": record.state,
            "population": record.population,
            "land_area_km2": record.land_area_km2,
            "n_bs": n_bs,
        }
        for record, n_bs in snapshot
    ]
    if args.out_dir:
        _print_json(emit_rows(rows, args.out_dir, "deployment", header=header))
    else:
        _print_json({"config": header, "rows": rows})
    return 0


def _cmd_simulate(args, cfg, cell):
    report = simulate(cfg, cell=cell, counties=_counties(args), n_jobs=args.jobs)
    if args.out_dir:
        _print_json(emit_report(report, args.out_dir))
    else:
        _print_json({"config": report.config,
                     "worst_sensor": report.worst_sensor_id,
                     "rows": [row_dict(r) for r in report.rows]})
    return 0


def _cmd_sweep_guard(args, cfg, cell):
    rows = sweep_guard_bands(cfg, years=args.years, guards_mhz=args.guards, cell=cell,
                             counties=_counties(args))
    # Only the keys shared by every row: year, guard and rate vary across the table.
    per_point = ("year", "rate_bps", "guard_mhz", "bandwidth_hz", "tn_band_ghz")
    header = {k: v for k, v in cfg.header(cell).items() if k not in per_point}
    if args.out_dir:
        _print_json(emit_guard_sweep(rows, args.out_dir, header=header))
    else:
        for row in rows:
            print(",".join(format_row(row_dict(row))))
    return 0


def _cmd_compliance(args, cfg, cell):
    spec = cfg.filter_spec
    margin = edge_psd_margin(spec, cfg.p_bs_dbw, args.eval_freq, args.limit)
    out = {
        "p_tx_dbw": cfg.p_bs_dbw,
        "guard_mhz": cfg.guard_mhz,
        "order": spec.order,
        "eval_freq_ghz": args.eval_freq,
        "leaked_psd_dbm_per_mhz": leaked_psd_dbm_per_mhz(spec, cfg.p_bs_dbw, args.eval_freq),
        "limit_dbm_per_mhz": args.limit,
        "margin_db": margin,
        "compliant": margin >= 0,
    }
    _print_json(out)
    return 0 if margin >= 0 else 3


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line through main's one `error:` line, not a usage block."""

    def error(self, message):
        raise ValueError(message)


class _Command(_ArgumentParser):
    """A command's parser, which adds its own arguments only when the command
    line names it: one run builds one command's arguments, not every
    command's."""

    def __init__(self, *, add_arguments, **kwargs):
        super().__init__(**kwargs)
        self._add_arguments = add_arguments

    def complete(self):
        """The parser with its arguments added; they are added once."""
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return self

    def parse_known_args(self, args=None, namespace=None):
        self.complete()
        return super().parse_known_args(args, namespace)


def _link_budget_arguments(p):
    p.add_argument("--sensor", required=True)
    p.add_argument("--freq", type=finite, default=DEFAULT_EVAL_FREQ_GHZ, help="GHz")
    p.add_argument("--g-tx", dest="g_tx_db", type=finite, help="BS gain toward sensor, dB")
    p.add_argument("--catalog", help="alternate sensor catalog JSON")
    p.set_defaults(func=_cmd_link_budget)


def _leakage_arguments(p):
    p.add_argument("--orders", type=_comma_list(int), default=LEAKAGE_ORDERS)
    p.add_argument("--guards", type=_comma_list(finite), default=GUARD_GRID_MHZ, help="MHz")
    p.add_argument("--sensors", dest="sensor_ids", type=_comma_list(str))
    p.add_argument("--ripple", dest="ripple_db", type=finite, help="passband ripple, dB")
    p.set_defaults(func=_cmd_leakage)


def _adoption_arguments(p):
    p.add_argument("--scenario", dest="adoption_factor", type=percent, metavar="PERCENT",
                   help="percent of baseline b3")
    p.add_argument("--year", type=int, required=True)
    p.set_defaults(func=_cmd_adoption)


def _deploy_arguments(p):
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--rate", dest="max_demand_bps", type=finite,
                   help="sizing rate per user, bps")
    p.add_argument("--scenario", dest="adoption_factor", type=percent, metavar="PERCENT",
                   help="percent of baseline b3")
    p.add_argument("--guard", dest="guard_mhz", type=finite, help="guard band, MHz")
    p.add_argument("--counties", help="county CSV (fips,name,state,rucc_code,population)")
    p.add_argument("--gazetteer", help="land-area CSV (fips,land_area_km2)")
    p.set_defaults(func=_cmd_deploy)


def _simulate_arguments(p):
    p.add_argument("--year", type=int)
    p.add_argument("--rate", dest="rate_bps", type=finite, help="user rate, bps")
    p.add_argument("--scenario", dest="adoption_factor", type=percent, metavar="PERCENT",
                   help="percent of baseline b3")
    p.add_argument("--guard", dest="guard_mhz", type=finite, help="guard band, MHz")
    p.add_argument("--trials", type=int)
    p.add_argument("--jobs", type=int, default=1, choices=range(1, (os.cpu_count() or 1) + 1),
                   metavar="N", help="worker processes, 1 to the CPU count")
    p.add_argument("--counties")
    p.add_argument("--gazetteer")
    p.set_defaults(func=_cmd_simulate)


def _sweep_guard_arguments(p):
    p.add_argument("--years", type=_comma_list(int), default=CANONICAL_YEARS)
    p.add_argument("--guards", type=_guard_grid, default=GUARD_GRID_MHZ,
                   help="lo:hi:step in MHz")
    p.add_argument("--trials", type=int)
    p.add_argument("--jobs", type=int, default=1, choices=(1,), metavar="1",
                   help="1 only: the sweep runs serially")
    p.add_argument("--counties")
    p.add_argument("--gazetteer")
    p.set_defaults(func=_cmd_sweep_guard)


def _compliance_arguments(p):
    p.add_argument("--ptx", dest="p_bs_dbw", type=finite, help="total transmit power, dBW")
    p.add_argument("--guard", dest="guard_mhz", type=finite, help="guard band, MHz")
    p.add_argument("--order", dest="filter_order", type=int, help="filter order")
    p.add_argument("--eval-freq", type=finite, default=EDGE_EVAL_FREQ_GHZ, help="GHz")
    p.add_argument("--limit", type=finite, default=DEFAULT_SPURIOUS_LIMIT_DBM_MHZ,
                   help="dBm/MHz")
    p.set_defaults(func=_cmd_compliance)


# Each command's name, help line and arguments, in the order `--help` lists them.
_COMMANDS = (
    ("link-budget", "per-sensor propagation budget", _link_budget_arguments),
    ("leakage", "leakage fractions per order/guard/sensor", _leakage_arguments),
    ("adoption", "penetration for a year and growth scenario", _adoption_arguments),
    ("deploy", "per-county BS counts", _deploy_arguments),
    ("simulate", "aggregate RFI per sensor", _simulate_arguments),
    ("sweep-guard", "max feasible rate per (year, guard)", _sweep_guard_arguments),
    ("compliance", "emission-mask margin at the band edge", _compliance_arguments),
)


def build_parser():
    """The command-line parser; each command's arguments are added when it is
    parsed, or by its parser's `complete`."""
    parser = _ArgumentParser(
        prog="eesscoex",
        description="Aggregate adjacent-band RFI from 7.125-7.4 GHz deployments "
                    "onto passive EESS radiometers",
    )
    parser.add_argument("--config", help="JSON file with 'scenario'/'cell' sections")
    parser.add_argument("--seed", type=int, help="master Monte Carlo seed")
    parser.add_argument("--out-dir", help="directory for CSV/JSON outputs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    for name, help_line, add_arguments in _COMMANDS:
        sub.add_parser(name, help=help_line, add_arguments=add_arguments)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out_dir and args.command in _PRINT_ONLY:
            raise ValueError(f"--out-dir: {args.command} writes no files")
        return args.func(args, *_build_configs(args))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # sizes past the machine: --trials, n_antennas, n_users
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
