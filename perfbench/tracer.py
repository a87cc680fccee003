"""Span tracing of the traceholes layers from outside the package.

Every wrapped function records a span (name, start, end, parent) that is
kept in memory until the pass ends.  Functions are wrapped at every module
attribute that refers to them, because the modules import each other's
functions by name: patching only the defining module would miss, for
example, ``hole_optimizer.solve_trace_constant``.  SuperLU factorizations
(``scipy.sparse.linalg.splu``) and their ``solve`` calls get spans of their
own, owned by the layer whose span encloses the factorization.

A layer's self time is its spans' time minus the time of their child
spans; SuperLU spans form the extra layer ``superlu``, so self times of
all layers plus the un-spanned remainder add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Modules of the package, each one layer; ``_descent`` is the descent layer.
LAYERS = {
    "cli": "cli", "geometry": "geometry", "fem": "fem", "_descent": "descent",
    "trace_solver": "trace_solver", "hole_optimizer": "hole_optimizer",
    "shape_derivative": "shape_derivative", "one_dim": "one_dim",
    "thin_domain": "thin_domain",
}
# Private functions that carry a per-layer metric.
PRIVATE = {
    "cli": ("_write_json", "_write_csv", "_write_extremal",
            "_write_extremal_1d"),
    "trace_solver": ("_h1_preconditioner",),
    "hole_optimizer": ("_relaxed_ranking_field",),
}
FACTOR_OWNERS = ("trace_solver", "one_dim")


class Tracer:
    def __init__(self):
        self.name_ids = {}
        self.names = []          # span name per name id
        self.span_name = []      # name id per span
        self.start = []
        self.end = []
        self.parent = []
        self.stack = [-1]
        self.counts = defaultdict(float)   # values read from results

    # -- recording -------------------------------------------------------
    def _open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, hook=None, arg_hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arg_hook is not None:
                args = arg_hook(args)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(result)
            return result
        return traced

    def enclosing_layer(self):
        """Layer of the innermost open span that belongs to a factor owner."""
        for idx in reversed(self.stack[1:]):
            layer = self.names[self.span_name[idx]].split(".", 1)[0]
            if layer in FACTOR_OWNERS:
                return layer
        return "other"

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap the package's functions and SuperLU for this process."""
        import scipy.sparse.linalg as spla
        import traceholes
        from traceholes import (_descent, cli, fem, geometry, hole_optimizer,
                                one_dim, shape_derivative, thin_domain,
                                trace_solver)
        modules = [cli, geometry, fem, _descent, trace_solver, hole_optimizer,
                   shape_derivative, one_dim, thin_domain]
        hooks = self._hooks()
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            layer = LAYERS[short]
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(short, ()):
                    continue
                name = f"{layer}.{attr}"
                hook, arg_hook = hooks.get(name, (None, None))
                wrapped[obj] = self.wrap(name, obj, hook, arg_hook)
        # patch every place a caller looks a wrapped function up
        for mod in modules + [traceholes]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        spla.splu = self._traced_splu(spla.splu)

    def _traced_splu(self, splu):
        tracer = self

        class TracedFactor:
            def __init__(self, lu, owner):
                self._lu, self._owner = lu, owner

            def solve(self, rhs, *args):
                idx = tracer._open(f"superlu.{self._owner}.precond_apply")
                try:
                    return self._lu.solve(rhs, *args)
                finally:
                    tracer._close(idx)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        @functools.wraps(splu)
        def traced(*args, **kwargs):
            owner = self.enclosing_layer()
            idx = self._open(f"superlu.{owner}.factor")
            try:
                lu = splu(*args, **kwargs)
            finally:
                self._close(idx)
            return TracedFactor(lu, owner)
        return traced

    def _hooks(self):
        """Counts read from arguments and results of selected functions."""
        c = self.counts

        def mesh(result):
            c["geometry.max_vertices"] = max(c["geometry.max_vertices"],
                                             result.n_vertices)

        def count_energy(args):
            e_fn = args[0]

            def counted(u):
                c["descent.energy_evals"] += 1
                return e_fn(u)
            return (counted,) + tuple(args[1:])

        def descent(result):
            c["descent.iterations"] += result.iterations
            c["descent.accepted"] += len(result.values) - 1
            c["descent.unconverged"] += not result.converged

        def limit(result):
            c["one_dim.iterations"] += result.iterations

        def optimizer(run):
            c["hole_optimizer.solves"] += run.n_solves
            c["hole_optimizer.improvements"] += len(run.history)

        def sweep(result):
            c["thin_domain.records"] += len(result.records)

        return {
            "geometry.generate_mesh": (mesh, None),
            "descent.minimize_quotient": (descent, count_energy),
            "one_dim.solve_limit_problem": (limit, None),
            "hole_optimizer.optimize_hole_alternating": (optimizer, None),
            "hole_optimizer.optimize_hole_shape_gradient": (optimizer, None),
            "thin_domain.run_mu_sweep": (sweep, None),
        }

    # -- reduction -------------------------------------------------------
    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of everything recorded so far."""
        n = len(self.span_name)
        names = [self.names[i] for i in self.span_name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        top = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                top += dur[i]
        layer_self = defaultdict(float)
        spans_of = defaultdict(list)
        for i in range(n):
            layer_self[names[i].split(".", 1)[0]] += dur[i] - child[i]
            spans_of[names[i]].append(i)
        calls = defaultdict(int, {nm: len(ix) for nm, ix in spans_of.items()})

        def group(members):
            """Calls and time of spans in ``members`` not nested in another."""
            k, t = 0, 0.0
            for nm in members:
                for i in spans_of.get(nm, ()):
                    p = self.parent[i]
                    if p < 0 or names[p] not in members:
                        k += 1
                        t += dur[i]
            return k, t

        def layer_group(layer):
            return {nm for nm in self.names if nm.split(".", 1)[0] == layer}

        m = {}
        for layer in list(LAYERS.values()) + ["superlu"]:
            m[f"{layer}.self_s"] = layer_self[layer]
        m["cli.write_s"] = group({f"cli.{f}" for f in PRIVATE["cli"]})[1]
        m["geometry.mesh_s"] = group({"geometry.generate_mesh"})[1]
        m["geometry.max_vertices"] = self.counts["geometry.max_vertices"]
        m["geometry.hole_calls"], m["geometry.hole_s"] = group(
            {"geometry.make_hole_from_arc", "geometry.hole_from_facets"})
        for key, members in (
                ("energy", {"fem.energy"}),
                ("energy_gradient", {"fem.energy_gradient"}),
                ("boundary", {"fem.boundary_norm_q",
                              "fem.boundary_norm_gradient"}),
                ("h1_operator", {"fem.h1_operator"})):
            m[f"fem.{key}.calls"], m[f"fem.{key}.s"] = group(members)
        m["descent.calls"] = calls["descent.minimize_quotient"]
        m["descent.iterations"] = self.counts["descent.iterations"]
        # one energy evaluation per call is the starting point, the rest
        # are line-search trials
        m["descent.trials"] = (self.counts["descent.energy_evals"]
                               - m["descent.calls"])
        m["descent.accepted"] = self.counts["descent.accepted"]
        m["descent.accept_ratio"] = _ratio(m["descent.accepted"],
                                           m["descent.trials"])
        m["descent.unconverged"] = self.counts["descent.unconverged"]
        m["trace_solver.solves"] = calls["trace_solver.solve_trace_constant"]
        for key in ("factor", "precond_apply"):
            k, t = group({f"superlu.trace_solver.{key}"})
            m[f"trace_solver.{key}.calls"], m[f"trace_solver.{key}_s"] = k, t
        m["hole_optimizer.runs"] = group(
            {"hole_optimizer.optimize_hole_alternating",
             "hole_optimizer.optimize_hole_shape_gradient"})[0]
        m["hole_optimizer.solves"] = self.counts["hole_optimizer.solves"]
        m["hole_optimizer.ranking_solves"] = \
            calls["hole_optimizer._relaxed_ranking_field"]
        m["hole_optimizer.improvements"] = \
            self.counts["hole_optimizer.improvements"]
        m["hole_optimizer.improve_ratio"] = _ratio(
            m["hole_optimizer.improvements"], m["hole_optimizer.solves"])
        m["shape_derivative.evals"], m["shape_derivative.s"] = group(
            {"shape_derivative.evaluate_shape_derivative"})
        m["shape_derivative.transport_s"] = group(
            {"shape_derivative.transport_hole"})[1]
        m["one_dim.solves"] = calls["one_dim.solve_limit_problem"]
        m["one_dim.iterations"] = self.counts["one_dim.iterations"]
        m["one_dim.s"] = group(layer_group("one_dim"))[1]
        m["thin_domain.records"] = self.counts["thin_domain.records"]
        m["trace.wall_s"] = wall_s
        m["trace.unspanned_s"] = wall_s - top
        m["trace.spans"] = n
        return m


def _ratio(num, den):
    return num / den if den else 0.0


# Metrics that count work and must repeat exactly at a fixed seed.
COUNT_METRICS = (
    "descent.calls", "descent.iterations", "descent.trials",
    "descent.accepted", "descent.unconverged",
    "fem.energy.calls", "fem.energy_gradient.calls", "fem.boundary.calls",
    "fem.h1_operator.calls", "trace_solver.solves",
    "trace_solver.factor.calls", "trace_solver.precond_apply.calls",
    "hole_optimizer.runs", "hole_optimizer.solves",
    "hole_optimizer.ranking_solves", "hole_optimizer.improvements",
    "shape_derivative.evals", "one_dim.solves", "one_dim.iterations",
    "thin_domain.records", "geometry.max_vertices", "geometry.hole_calls",
    "trace.spans",
)
