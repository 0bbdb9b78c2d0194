"""Command line driver: convergence studies, penalty sweeps, single solves.

Options may also come from a key=value config file (--config) naming options
of the command; options given on the command line win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import experiments
from .assembly import SW_VARIANTS


def _mesh_level(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"mesh level {value} must be at least 1")
    return value


def _comma_list(parse, text):
    """The parsed items of a comma-separated list, which must not be empty."""
    values = tuple(parse(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
    return values


def _parse_levels(text):
    return _comma_list(_mesh_level, text)


def _penalty(text):
    try:
        return experiments.check_penalty(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _parse_gammas(text):
    return _comma_list(_penalty, text)


def _add_common(parser):
    parser.add_argument("--degree", type=int, choices=(1, 2), default=None,
                        help="polynomial degree (default 1)")
    parser.add_argument("--gamma-v", type=_penalty, default=None,
                        help="primal penalty (default 0.01 for P1, 0.001 for P2)")
    parser.add_argument("--gamma-w", type=_penalty, default=None,
                        help="dual penalty (same defaults as --gamma-v)")
    parser.add_argument("--sw-variant", choices=SW_VARIANTS, default=None,
                        help="dual stabilizer: galerkin energy or face jumps "
                             "(default jump)")
    parser.add_argument("--jitter", type=float, default=None,
                        help="interior-vertex jitter in [0, 0.3) (default 0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the jitter directions (default 0)")
    parser.add_argument("--out", default=None, help="output file path")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying defaults for any option")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cauchyfem",
        description="Stabilized primal-dual FEM for the elliptic Cauchy "
                    "problem on the unit square")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("convergence", help="refinement study over mesh levels")
    _add_common(conv)
    conv.add_argument("--levels", type=_parse_levels, default=None,
                      help="comma-separated mesh levels (default 8,16,32,64)")

    sweep = sub.add_parser("sweep", help="penalty-parameter sweep on a fixed mesh")
    _add_common(sweep)
    sweep.add_argument("--n", type=_mesh_level, default=None, help="mesh level (default 64)")
    sweep.add_argument("--gammas", type=_parse_gammas, default=None,
                       help="comma-separated penalty values "
                            "(default 9 log-spaced in [1e-4, 1])")

    single = sub.add_parser("solve", help="single solve with optional field dump")
    _add_common(single)
    single.add_argument("--n", type=_mesh_level, default=None, help="mesh level (default 8)")
    single.add_argument("--emit-fields", action="store_true", default=None,
                        help="write u_h, z_h and the pointwise error as legacy VTK")

    return parser


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _boolean(text):
    if text.lower() not in _TRUE + _FALSE:
        raise ValueError(f"expected 1/0, true/false, yes/no or on/off, got {text!r}")
    return text.lower() in _TRUE


#: config-file key -> parser of its value; any other key is rejected
_CONVERTERS = {
    "degree": int,
    "n": _mesh_level,
    "seed": int,
    "gamma_v": _penalty,
    "gamma_w": _penalty,
    "sw_variant": str,
    "jitter": float,
    "levels": _parse_levels,
    "gammas": _parse_gammas,
    "out": str,
    "emit_fields": _boolean,
}


def read_config_file(path):
    """Parse `key = value` lines; '#' starts a comment.  An unknown key or a
    value its option rejects raises ValueError naming path:line."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONVERTERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONVERTERS[key](value)
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise ValueError(f"{path}:{lineno}: {key}: {err}") from err
    return values


def _print_rows(rows, label):
    """One line per row, named by `label.format(row)`; a failed solve prints
    its error."""
    print(f"{'case':>10} {'global_l2':>12} {'local_l2':>12} {'stab_u':>12} "
          f"{'stab_z':>12} {'eta':>12}")
    for row in rows:
        name, report = label.format(row), row.report
        if report is None:
            print(f"{name:>10} failed: {row.error}")
            continue
        print(f"{name:>10} {report.global_l2:12.4e} {report.local_l2:12.4e} "
              f"{report.stab_u:12.4e} {report.stab_z:12.4e} {report.eta:12.4e}")


#: command -> (driver, option -> driver keyword, output file when --out is unset)
_COMMANDS = {
    "convergence": (experiments.run_convergence, {}, "convergence.csv"),
    "sweep": (experiments.run_sweep, {"gammas": "gammas", "n": "n"}, "sweep.csv"),
    "solve": (experiments.run_single, {"n": "n"}, "fields.vtk"),
}
_CONFIG_FIELDS = {field.name for field in dataclasses.fields(experiments.RunConfig)}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    driver, keywords, out_default = _COMMANDS[args.command]
    try:
        # an option set neither by a flag nor by the file is left out, so the
        # default of RunConfig or of the driver holds; flags win over the file
        opts = {key: value for key, value in vars(args).items() if value is not None}
        if "config" in opts:
            from_file = read_config_file(opts["config"])
            misplaced = sorted(from_file.keys() - vars(args).keys())
            if misplaced:
                raise ValueError(f"{opts['config']}: key {misplaced[0]!r} is not an "
                                 f"option of the {args.command} command")
            opts = {**from_file, **opts}
        if args.command == "solve" and "out" in opts and not opts.get("emit_fields"):
            raise ValueError("solve writes --out only with --emit-fields; "
                             "give both or neither")
        fields = {key: value for key, value in opts.items() if key in _CONFIG_FIELDS}
        config = experiments.RunConfig(output_path=opts.get("out") or out_default,
                                       **fields)
    except (OSError, ValueError) as err:
        parser.error(str(err))
    rows = driver(config, **{keyword: opts[option]
                             for option, keyword in keywords.items() if option in opts})
    rows = rows if isinstance(rows, list) else [rows]
    _print_rows(rows, "{0.key:.1e}" if args.command == "sweep" else "n={0.n}")
    failed = any(row.report is None for row in rows)
    # solve writes its VTK file only with emit_fields and a solution
    if args.command != "solve" or (config.emit_fields and not failed):
        print(f"wrote {config.output_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
