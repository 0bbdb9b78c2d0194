"""Command line driver: convergence studies, penalty sweeps, single solves.

Each command is described once, in `_COMMANDS`, and its help reads each
default it names from `experiments`.  Options may also come from a key=value
config file (--config) naming options of the command; options given on the
command line win over the file.
"""

from __future__ import annotations

import argparse
import functools
import inspect
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
    """The parsed items of a comma-separated list, none of them empty."""
    items = text.split(",")
    empty = [i for i, item in enumerate(items, 1) if not item.strip()]
    if empty:
        each = "" if len(empty) == len(items) else f" in each item (item {empty[0]} is empty)"
        raise argparse.ArgumentTypeError(f"expected at least one value{each}, got {text!r}")
    return tuple(map(parse, items))


def _penalty(text):
    try:
        return experiments.check_penalty(float(text))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


_DEFAULT, _SWEEP = experiments.RunConfig(), experiments.DEFAULT_SWEEP_GAMMAS
_PER_DEGREE = ", ".join(f"{g:g} for P{d}" for d, g in experiments.DEFAULT_GAMMA.items())

#: options as (flag, add_argument keywords); each default their help names
#: is read from where it is defined, and --out's help is set per command
_DEGREE = ("--degree", dict(type=int, choices=(1, 2),
                            help=f"polynomial degree (default {_DEFAULT.degree})"))
_PENALTIES = tuple((flag, dict(type=_penalty, help=f"{what} (default {_PER_DEGREE})"))
                   for flag, what in (("--gamma-v", "primal penalty"),
                                      ("--gamma-w", "dual penalty of the jump s_W")))
_COMMON = (
    ("--sw-variant", dict(choices=SW_VARIANTS, help="dual stabilizer: galerkin energy "
                          f"or face jumps (default {_DEFAULT.sw_variant})")),
    ("--jitter", dict(type=float, help=f"interior-vertex jitter in [0, {MAX_JITTER:g}) "
                                       f"(default {_DEFAULT.jitter:g})")),
    ("--seed", dict(type=int,
                    help=f"seed for the jitter directions (default {_DEFAULT.seed})")),
    ("--out", {}),
    ("--config", dict(help="key=value file of defaults for any option")))
_LEVELS = ("--levels", dict(type=functools.partial(_comma_list, _mesh_level),
                            help="comma-separated mesh levels "
                                 f"(default {','.join(map(str, _DEFAULT.levels))})"))
_GAMMAS = ("--gammas", dict(type=functools.partial(_comma_list, _penalty),
                            help=f"comma-separated penalty values (default {len(_SWEEP)} "
                                 f"log-spaced in [{_SWEEP[0]:g}, {_SWEEP[-1]:g}])"))
_N = {driver: ("--n", dict(type=_mesh_level, help="mesh level (default "
                           f"{inspect.signature(driver).parameters['n'].default})"))
      for driver in (experiments.run_sweep, experiments.run_single)}

#: command -> (driver, help, output file when --out is unset or None to write
#: nothing, row label, whether it prints rates, options in usage order); an
#: option is a RunConfig field, a driver keyword, --out or --config
_COMMANDS = {
    "convergence": (experiments.run_convergence, "refinement study over mesh levels",
                    "convergence.csv", "n={0.n}", True,
                    (_DEGREE, *_PENALTIES, *_COMMON, _LEVELS)),
    "sweep": (experiments.run_sweep, "penalty-parameter sweep on a fixed mesh", "sweep.csv",
              "{0.key:.1e}", False, (_DEGREE, *_COMMON, _N[experiments.run_sweep], _GAMMAS)),
    "solve": (experiments.run_single, "single solve; --out writes its fields as VTK", None,
              "n={0.n}", False, (_DEGREE, *_PENALTIES, *_COMMON, _N[experiments.run_single])),
}
_CONFIG_FIELDS = vars(_DEFAULT).keys()


def build_parser():
    """The top-level parser, and per command its subparser and the options a
    config file may set, by destination."""
    parser = argparse.ArgumentParser(
        prog="cauchyfem",
        description="Stabilized primal-dual FEM for the elliptic Cauchy "
                    "problem on the unit square")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, text, out, _, _, specs) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        options = {action.dest: action
                   for action in (command.add_argument(flag, **spec) for flag, spec in specs)}
        del options["config"]
        options["out"].help = f"output file path (default {out or 'none: no file'})"
        commands[name] = command, options
    return parser, commands


def read_config_file(path):
    """Parse `key = value` lines; '#' starts a comment.  A key is an option of
    any command, and its value is converted by that option's type.  An
    unknown key or a value its option rejects raises ValueError naming
    path:line."""
    converters = {dest: action.type or str for _, options in build_parser()[1].values()
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


def main(argv=None):
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    command, options = commands[args.command]
    driver, _, out_default, label, rates, _ = _COMMANDS[args.command]
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
        config = experiments.RunConfig(output_path=opts.get("out", out_default), **fields)
    except (OSError, ValueError) as err:
        command.error(str(err))
    rows = driver(config, **{key: value for key, value in opts.items()
                             if key in options.keys() - _CONFIG_FIELDS - {"out"}})
    _print_rows(rows, label, rates)
    failed = any(row.report is None for row in rows)
    # a command without a default file writes a solve's fields: none if it failed
    if config.output_path and not (failed and out_default is None):
        print(f"wrote {config.output_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
