"""Command line driver: convergence studies, penalty sweeps, single solves.

Options may also come from a key=value config file (--config) naming options
of the command; options given on the command line win over the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import experiments
from .assembly import SW_VARIANTS
from .mesh import MAX_JITTER


def _mesh_level(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"mesh level {text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"mesh level {value} must be at least 1")
    return value


def _comma_list(parse, text):
    """The parsed items of a comma-separated list, which must not be empty."""
    values = tuple(parse(tok) for tok in text.split(",") if tok.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
    return values


def _penalty(text):
    try:
        return experiments.check_penalty(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _add_common(parser):
    """Adds the options of every command and --config; returns the options,
    which a config file may set too."""
    options = [
        parser.add_argument("--degree", type=int, choices=(1, 2),
                            help="polynomial degree (default 1)"),
        parser.add_argument("--gamma-v", type=_penalty,
                            help="primal penalty (default 0.01 for P1, 0.001 for P2)"),
        parser.add_argument("--gamma-w", type=_penalty,
                            help="dual penalty (same defaults as --gamma-v)"),
        parser.add_argument("--sw-variant", choices=SW_VARIANTS,
                            help="dual stabilizer: galerkin energy or face jumps "
                                 "(default jump)"),
        parser.add_argument("--jitter", type=float,
                            help=f"interior-vertex jitter in [0, {MAX_JITTER:g}) "
                                 "(default 0)"),
        parser.add_argument("--seed", type=int,
                            help="seed for the jitter directions (default 0)"),
        parser.add_argument("--out", help="output file path"),
    ]
    parser.add_argument("--config", help="key=value file of defaults for any option")
    return options


def build_parser():
    """The top-level parser, and per command its subparser and the options a
    config file may set, by destination."""
    parser = argparse.ArgumentParser(
        prog="cauchyfem",
        description="Stabilized primal-dual FEM for the elliptic Cauchy "
                    "problem on the unit square")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("convergence", help="refinement study over mesh levels")
    conv_options = _add_common(conv) + [
        conv.add_argument("--levels", type=functools.partial(_comma_list, _mesh_level),
                          help="comma-separated mesh levels (default 8,16,32,64)")]

    sweep = sub.add_parser("sweep", help="penalty-parameter sweep on a fixed mesh")
    sweep_options = _add_common(sweep) + [
        sweep.add_argument("--n", type=_mesh_level, help="mesh level (default 64)"),
        sweep.add_argument("--gammas", type=functools.partial(_comma_list, _penalty),
                           help="comma-separated penalty values "
                                "(default 9 log-spaced in [1e-4, 1])")]

    single = sub.add_parser("solve", help="single solve; --out writes its fields as VTK")
    single_options = _add_common(single) + [
        single.add_argument("--n", type=_mesh_level, help="mesh level (default 8)")]

    return parser, {name: (command, {action.dest: action for action in options})
                    for name, command, options in (
                        ("convergence", conv, conv_options),
                        ("sweep", sweep, sweep_options),
                        ("solve", single, single_options))}


def read_config_file(path):
    """Parse `key = value` lines; '#' starts a comment.  A key is an option of
    any command, and its value is converted by that option's type.  An
    unknown key or a value its option rejects raises ValueError naming
    path:line."""
    converters = {dest: action.type or str
                  for _, options in build_parser()[1].values()
                  for dest, action in options.items()}
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
            if key not in converters:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = converters[key](value)
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise ValueError(f"{path}:{lineno}: {key}: {err}") from err
    return values


def _print_rows(rows, label, rates):
    """One line per row, named by `label.format(row)`, with the observed rates
    of a refinement study if `rates`; a failed solve prints its error."""
    header = (f"{'case':>10} {'global_l2':>12} {'local_l2':>12} {'stab_u':>12} "
              f"{'stab_z':>12} {'eta':>12}")
    print(header + (f" {'rate_l2':>9} {'rate_stab':>9}" if rates else ""))
    for row in rows:
        name, report = label.format(row), row.report
        if report is None:
            print(f"{name:>10} failed: {row.error}")
            continue
        line = (f"{name:>10} {report.global_l2:12.4e} {report.local_l2:12.4e} "
                f"{report.stab_u:12.4e} {report.stab_z:12.4e} {report.eta:12.4e}")
        if rates:
            line += "".join(f" {'NA' if rate is None else f'{rate:.2f}':>9}"
                            for rate in (row.rate_local_l2, row.rate_stab))
        print(line)


#: command -> (driver, output file when --out is unset, or None to write
#: nothing); its options other than --out and RunConfig's are driver keywords
_COMMANDS = {
    "convergence": (experiments.run_convergence, "convergence.csv"),
    "sweep": (experiments.run_sweep, "sweep.csv"),
    "solve": (experiments.run_single, None),
}
_CONFIG_FIELDS = {field.name for field in dataclasses.fields(experiments.RunConfig)}


def main(argv=None):
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    command, options = commands[args.command]
    driver, out_default = _COMMANDS[args.command]
    try:
        # an option set neither by a flag nor by the file is left out, so the
        # default of RunConfig or of the driver holds; flags win over the file
        opts = {key: value for key, value in vars(args).items() if value is not None}
        if "config" in opts:
            from_file = read_config_file(opts["config"])
            misplaced = sorted(from_file.keys() - options.keys())
            if misplaced:
                raise ValueError(f"{opts['config']}: key {misplaced[0]!r} is not an "
                                 f"option of the {args.command} command")
            opts = {**from_file, **opts}
        fields = {key: value for key, value in opts.items() if key in _CONFIG_FIELDS}
        config = experiments.RunConfig(output_path=opts.get("out") or out_default,
                                       **fields)
    except (OSError, ValueError) as err:
        command.error(str(err))
    rows = driver(config, **{key: value for key, value in opts.items()
                             if key in options and key not in _CONFIG_FIELDS | {"out"}})
    _print_rows(rows, "{0.key:.1e}" if args.command == "sweep" else "n={0.n}",
                rates=args.command == "convergence")
    failed = any(row.report is None for row in rows)
    # a failed solve writes no VTK file
    if config.output_path and not (failed and args.command == "solve"):
        print(f"wrote {config.output_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
