"""Outside-in span tracer for the traced benchmark run, and its analysis.

The tracer wraps the package's layer entry points where the drivers call
into them: every binding of each listed function in a ``cauchyfem`` module
namespace is replaced by a wrapper, so calls made through module globals
(``solver.solve_problem`` calling ``assemble_blocks``, ``error_report``
calling ``l2_error``) are seen.  Nothing inside ``src/`` changes.  Hot
per-face and per-triangle helpers are deliberately not wrapped.

Each call records a span: name, start, end, parent span and solve id (the
index of the enclosing ``solve_level`` call, one per level or gamma).  Spans
stay in memory and are written once, when the driver returns.
"""

import functools
import importlib
import json
import sys
import time

#: layer -> functions wrapped in that layer's module
ENTRY_POINTS = {
    "experiments": ("run_convergence", "run_sweep", "solve_level",
                    "write_convergence_csv", "write_sweep_csv"),
    "mesh": ("unit_square_mesh", "build_structured", "from_triangles",
             "tag_boundary", "mesh_size"),
    "spaces": ("build_space",),
    "assembly": ("assemble_blocks", "assemble_primal_stab",
                 "assemble_stiffness", "assemble_dual_stab", "assemble_load",
                 "assemble_data_term"),
    "solver": ("solve_problem", "build_system", "solve"),
    "analysis": ("error_report", "l2_error", "h1_semi_error",
                 "stab_seminorm_u", "stab_seminorm_z", "l2_norm_field", "eta",
                 "convergence_rate"),
}
SOLVE_SPAN = "experiments.solve_level"


def _blocks_nnz(blocks):
    return blocks.s_v.nnz + blocks.a.nnz + blocks.s_w.nnz


#: span name -> {attribute: reader of the wrapped call's return value}
OBSERVERS = {
    "assembly.assemble_blocks": {"nnz": _blocks_nnz},
    "solver.build_system": {"nnz": lambda s: s.matrix.nnz,
                            "dofs": lambda s: s.matrix.shape[0]},
    "solver.solve": {"residual": lambda sol: float(sol.residual)},
}


class Tracer:
    """Records one span per call of a wrapped entry point."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, solve, error, attrs]
        self.missing = []     # entry points that do not exist
        self.residual_tol = None
        self._stack = []
        self._solves = 0

    def install(self):
        """Wrap every entry point in every loaded cauchyfem module."""
        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module(f"cauchyfem.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "cauchyfem":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
        solver = importlib.import_module("cauchyfem.solver")
        self.residual_tol = getattr(solver, "RESIDUAL_TOL", None)

    def _wrap(self, span_name, fn):
        observers = OBSERVERS.get(span_name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if span_name == SOLVE_SPAN:
                solve = self._solves
                self._solves += 1
            else:
                solve = None if parent is None else self.spans[parent][4]
            span = [span_name, 0.0, 0.0, parent, solve, None, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            for attr, read in observers.items():
                try:
                    span[6][attr] = read(result)
                except AttributeError:
                    pass      # reported as a missing metric
            return result

        return traced

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "solve", "error", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing,
                       "residual_tol": self.residual_tol,
                       "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


# ---------------------------------------------------------------------------
# analysis of a span dump


class Missing(Exception):
    """A metric's entry point does not exist or was never called."""


#: work outside the wrapped entry points that the traced wall may hold:
#: building the RunConfig and the wrapper's own bookkeeping
WALL_SLACK_S = 0.002
WALL_SLACK_REL = 0.002


class Trace:
    """A loaded span dump with self times and nesting checks.

    `wall_s` is the traced driver call as the traced process timed it.
    """

    def __init__(self, dump, wall_s):
        self.wall_s = wall_s
        self.missing = set(dump["missing"])
        self.residual_tol = dump["residual_tol"]
        self.spans = dump["spans"]
        self.children = [[] for _ in self.spans]
        self.roots = []
        for i, span in enumerate(self.spans):
            if span["parent"] is None:
                self.roots.append(i)
            else:
                self.children[span["parent"]].append(i)
        self.self_s = [
            span["end"] - span["start"]
            - sum(self.duration(c) for c in self.children[i])
            for i, span in enumerate(self.spans)]

    @classmethod
    def load(cls, path, wall_s):
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh), wall_s)

    def duration(self, i):
        return self.spans[i]["end"] - self.spans[i]["start"]

    def problems(self):
        """Violations of span nesting, and layer self times that do not
        account for the traced wall."""
        found = []
        for i, span in enumerate(self.spans):
            if span["end"] < span["start"]:
                found.append(f"span {i} {span['name']} ends before it starts")
            kids = sorted(self.children[i],
                          key=lambda c: self.spans[c]["start"])
            for c in kids:
                if not (span["start"] <= self.spans[c]["start"]
                        and self.spans[c]["end"] <= span["end"]):
                    found.append(f"span {c} lies outside its parent {i}")
            for a, b in zip(kids, kids[1:]):
                if self.spans[a]["end"] > self.spans[b]["start"]:
                    found.append(f"sibling spans {a} and {b} overlap")
            if self.self_s[i] < 0:
                found.append(f"span {i} {span['name']} has self time "
                             f"{self.self_s[i]:g} s")
        if len(self.roots) != 1:
            found.append(f"{len(self.roots)} root spans, expected the driver")
        layers = sum(map(self._layer_self_or_0, ENTRY_POINTS))
        if abs(layers - self.wall_s) > WALL_SLACK_S \
                + WALL_SLACK_REL * self.wall_s:
            found.append(f"layer self times sum to {layers!r} s, the traced "
                         f"driver call took {self.wall_s!r} s")
        return found

    def _layer_self_or_0(self, layer):
        try:
            return self.layer_self_s(layer)
        except Missing:
            return 0.0

    # -- selections -------------------------------------------------------

    def named(self, name):
        if name in self.missing:
            raise Missing(f"entry point {name} not found")
        found = [i for i, s in enumerate(self.spans) if s["name"] == name]
        if not found:
            raise Missing(f"entry point {name} was not called")
        return found

    def inclusive_s(self, name):
        return sum(self.duration(i) for i in self.named(name))

    def _layer_spans(self, layer):
        names = {f"{layer}.{n}" for n in ENTRY_POINTS[layer]}
        if names <= self.missing:
            raise Missing(f"no entry point of layer {layer} found")
        found = [i for i, s in enumerate(self.spans) if s["name"] in names]
        if not found:
            raise Missing(f"no entry point of layer {layer} was called")
        return found

    def layer_self_s(self, layer):
        return sum(self.self_s[i] for i in self._layer_spans(layer))

    def error_solves(self, layer):
        """Solves in which a span of `layer` ended with an exception."""
        return len({self.spans[i]["solve"] for i in self._layer_spans(layer)
                    if self.spans[i]["error"]})

    def attr_values(self, name, attr):
        values = [self.spans[i]["attrs"].get(attr) for i in self.named(name)]
        if any(v is None for v in values):
            raise Missing(f"{name} returned no readable {attr}")
        return values

    def per_solve(self, name):
        return len(self.named(name)) / len(self.named(SOLVE_SPAN))

    def final_residuals(self):
        """solve id -> residual of the last solver.solve call of that solve."""
        ids = [self.spans[i]["solve"] for i in self.named("solver.solve")]
        return dict(zip(ids, self.attr_values("solver.solve", "residual")))

    def unconverged_solves(self):
        """Solves whose final residual is not below solver.RESIDUAL_TOL."""
        if self.residual_tol is None:
            raise Missing("cauchyfem.solver.RESIDUAL_TOL not found")
        # NaN residuals fail this comparison too
        return {sid for sid, r in self.final_residuals().items()
                if not r < self.residual_tol}

    def failed_solve_ids(self):
        """Solves that raised or whose residual check failed."""
        failed = {s["solve"] for s in self.spans
                  if s["name"] == SOLVE_SPAN and s["error"]}
        try:
            return failed | self.unconverged_solves()
        except Missing:
            return failed


def _inclusive(name):
    return lambda t: t.inclusive_s(name)


def _busy(layer):
    return lambda t: t.layer_self_s(layer)


def _largest(name, attr):
    return lambda t: max(t.attr_values(name, attr))


def _per_solve(name):
    return lambda t: t.per_solve(name)


#: per-layer metric -> (unit, reader of a Trace).  Times are totals over the
#: run's solves, matrix sizes the largest solve's.
PER_LAYER = {
    "assembly.s_v_s": ("s", _inclusive("assembly.assemble_primal_stab")),
    "assembly.s_w_s": ("s", _inclusive("assembly.assemble_dual_stab")),
    "assembly.a_s": ("s", _inclusive("assembly.assemble_stiffness")),
    "assembly.load_s": ("s", _inclusive("assembly.assemble_load")),
    "assembly.data_s": ("s", _inclusive("assembly.assemble_data_term")),
    "assembly.nnz": ("count", _largest("assembly.assemble_blocks", "nnz")),
    "assembly.calls_per_solve": ("ratio",
                                 _per_solve("assembly.assemble_blocks")),
    "mesh.builds_per_solve": ("ratio", _per_solve("mesh.from_triangles")),
    "analysis.report_s": ("s", _inclusive("analysis.error_report")),
    "analysis.l2_s": ("s", _inclusive("analysis.l2_error")),
    "analysis.h1_s": ("s", _inclusive("analysis.h1_semi_error")),
    "analysis.stab_u_s": ("s", _inclusive("analysis.stab_seminorm_u")),
    "analysis.stab_z_s": ("s", _inclusive("analysis.stab_seminorm_z")),
    "analysis.f_norm_s": ("s", _inclusive("analysis.l2_norm_field")),
    "solver.build_s": ("s", _inclusive("solver.build_system")),
    "solver.solve_s": ("s", _inclusive("solver.solve")),
    "solver.saddle_nnz": ("count", _largest("solver.build_system", "nnz")),
    "solver.saddle_dofs": ("count", _largest("solver.build_system", "dofs")),
    "solver.solves": ("count", lambda t: len(t.named("solver.solve"))),
    "solver.max_residual": ("ratio",
                            lambda t: max(t.final_residuals().values())),
    "solver.unconverged": ("count", lambda t: len(t.unconverged_solves())),
    "solver.errors": ("count", lambda t: t.error_solves("solver")),
    "mesh.busy_s": ("s", _busy("mesh")),
    "spaces.busy_s": ("s", _busy("spaces")),
    "assembly.busy_s": ("s", _busy("assembly")),
    "solver.busy_s": ("s", _busy("solver")),
    "analysis.busy_s": ("s", _busy("analysis")),
    "experiments.self_s": ("s", _busy("experiments")),
    "trace.wall_s": ("s", lambda t: t.wall_s),
}


def layer_metrics(trace):
    """Every PER_LAYER metric as {"value", "unit"}; a metric whose entry
    point is gone or was never called has value None and says why."""
    out = {}
    for name, (unit, read) in PER_LAYER.items():
        try:
            out[name] = {"value": read(trace), "unit": unit}
        except Missing as why:
            out[name] = {"value": None, "unit": unit, "missing": str(why)}
    return out
