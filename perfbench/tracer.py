"""Spans around the package's public functions, recorded from outside it.

``Tracer.install()`` replaces every public callable defined in a layer
module (plain functions and wrapped ones such as ``functools.lru_cache``
objects; not classes) and the three methods of ``FourLevelLiouvillian``
with a wrapper that records ``(unit, name, start, end, parent)``.  A name is rebound in
every ``singleatom`` module that holds it, including module-level dicts and
tuples such as the CLI's runner table, so a call through an imported alias
(``singleatom.cli.four_level_g2``, ``singleatom.lightshift.wigner_6j``) is
seen too.  The callable handed to ``integrator.integrate`` is wrapped to
count right-hand-side evaluations, labelled by the layer of the span that
called ``integrate``.  Spans stay in memory; ``summary()`` reduces them to
totals when the traced pass ends.

``REQUIRED_SPANS`` lists every span the per-layer metrics read.  Any of
them that ``install()`` could not wrap is listed in ``missing``, and the
benchmark refuses a traced run with a missing span rather than report the
layer as free.

Only the standard library is used.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# package module -> layer name
LAYER_MODULES = {
    "singleatom.cli": "cli",
    "singleatom.angular": "angular",
    "singleatom.lightshift": "lightshift",
    "singleatom.trapgeometry": "trapgeometry",
    "singleatom.loading": "loading",
    "singleatom.bloch.four_level": "bloch",
    "singleatom.bloch.two_level": "bloch",
    "singleatom.bloch.diffusion": "bloch",
    "singleatom.bloch.state": "bloch",
    "singleatom.coherent": "coherent",
    "singleatom.entanglement": "entanglement",
    "singleatom.analysis": "analysis",
    "singleatom.integrator": "integrator",
}
LAYERS = tuple(dict.fromkeys(LAYER_MODULES.values()))

# methods that carry their own span: (module, class, method) -> span name
METHOD_SPANS = {
    ("singleatom.bloch.four_level", "FourLevelLiouvillian", "__init__"): "bloch.liouvillian_build",
    ("singleatom.bloch.four_level", "FourLevelLiouvillian", "steady_state"): "bloch.steady_state",
    ("singleatom.bloch.four_level", "FourLevelLiouvillian", "propagate"): "bloch.propagate",
}

# the CLI's scenario runners: cli.runner_s is their inclusive time
RUNNER_SPANS = tuple(f"cli.run_{name}" for name in (
    "lightshift", "magic", "trap", "loading", "g2", "stirap", "larmor",
    "bell", "correlations", "spectrum_fit", "pair_rate"))

# every span the per-layer metrics read
REQUIRED_SPANS = (
    "cli.main", *RUNNER_SPANS,
    "bloch.four_level_g2", "bloch.two_level_obe_g2", "bloch.two_level_g2_analytic",
    "bloch.apply_trap_shifts", *METHOD_SPANS.values(),
    "integrator.integrate",
    "lightshift.hyperfine_shift", "lightshift.ground_shift_alkali",
    "lightshift.find_magic_wavelength", "lightshift.load_default_lines",
    "angular.wigner_6j", "angular.clebsch_gordan",
    "coherent.stirap_evolve", "loading.stationary_distribution",
    "analysis.fit_doppler_sigma",
)

# functions whose distinct argument tuples are counted
ARG_TRACKED = ("angular.wigner_6j", "angular.clebsch_gordan")
# g2 entry points whose delay grids are counted -> position of the grid
# argument (g2_full_model delegates to four_level_g2)
G2_FUNCTIONS = {"bloch.four_level_g2": 1, "bloch.two_level_obe_g2": 3,
                "bloch.two_level_g2_analytic": 3}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Records spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.rhs_evals: Counter = Counter()
        self.g2_points = 0
        self.args_seen: dict[str, set] = defaultdict(set)
        self.unit = 0
        self.missing: list[str] = []
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        clock = time.perf_counter
        track_args = name in ARG_TRACKED
        grid_pos = G2_FUNCTIONS.get(name)
        is_integrate = name == "integrator.integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            if track_args:
                tracer.args_seen[name].add(args + tuple(sorted(kwargs.items())))
            if grid_pos is not None:
                grid = args[grid_pos] if len(args) > grid_pos else kwargs["tau_grid"]
                tracer.g2_points += len(grid)
            if is_integrate:
                caller = tracer.spans[parent][1] if parent >= 0 else "none"
                args = (tracer._counting(args[0], layer_of(caller)),) + args[1:]
            index = len(tracer.spans)
            tracer.spans.append((tracer.unit, name, clock(), 0.0, parent))
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                unit, _, start, _, par = tracer.spans[index]
                tracer.spans[index] = (unit, name, start, clock(), par)

        return wrapper

    def _counting(self, f, label: str):
        counter = self.rhs_evals

        def counted(t, y):
            counter[label] += 1
            return f(t, y)

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public callables in every module that binds them,
        and list in ``missing`` each required span that found nothing to wrap."""
        for modname in LAYER_MODULES:
            importlib.import_module(modname)
        replace = {}  # id of the original -> (original, wrapper)
        wrapped = set()
        for modname, layer in LAYER_MODULES.items():
            module = sys.modules[modname]
            for attr, obj in vars(module).items():
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == modname
                        and not attr.startswith("_")):
                    replace[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                    wrapped.add(f"{layer}.{attr}")
        for (modname, cls_name, meth), span in METHOD_SPANS.items():
            cls = getattr(sys.modules[modname], cls_name, None)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, self._wrap(vars(cls)[meth], span))
                wrapped.add(span)
        self.missing = [name for name in REQUIRED_SPANS if name not in wrapped]
        for modname, module in list(sys.modules.items()):
            if modname == "singleatom" or modname.startswith("singleatom."):
                _rebind(module, replace)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Totals over the recorded spans.

        For each span name: ``calls``, ``incl`` (summed duration) and
        ``layer_self`` (duration minus the time of wrapped calls into other
        layers made inside it).  For each layer: ``self`` (duration minus
        all wrapped child spans).  Plus the counters.
        """
        n = len(self.spans)
        children = defaultdict(list)
        for i, (_, _, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(i)
        dur = [end - start for _, _, start, end, _ in self.spans]
        names = [s[1] for s in self.spans]

        other_layer = [0.0] * n
        # children are recorded after their parents, so walk backwards
        for i in range(n - 1, -1, -1):
            layer = layer_of(names[i])
            other_layer[i] = sum(
                dur[c] if layer_of(names[c]) != layer else other_layer[c]
                for c in children[i])

        per_name = defaultdict(lambda: {"calls": 0, "incl": 0.0, "layer_self": 0.0})
        layer_self = defaultdict(float)
        for i in range(n):
            entry = per_name[names[i]]
            entry["calls"] += 1
            entry["incl"] += dur[i]
            entry["layer_self"] += dur[i] - other_layer[i]
            layer_self[layer_of(names[i])] += dur[i] - sum(dur[c] for c in children[i])
        return {
            "names": dict(per_name),
            "layers": dict(layer_self),
            "rhs_evals": dict(self.rhs_evals),
            "g2_points": self.g2_points,
            "distinct_args": {k: len(v) for k, v in self.args_seen.items()},
            "missing": self.missing,
        }


def _rebind(module, replace: dict) -> None:
    """Point every binding of a replaced callable in ``module`` at its wrapper,
    also inside module-level dicts and tuples of callables."""
    for attr, obj in list(vars(module).items()):
        if attr.startswith("__"):
            continue
        if isinstance(obj, dict):
            for key, value in obj.items():
                new = _swapped(value, replace)
                if new is not None:
                    obj[key] = new
        else:
            new = _swapped(obj, replace)
            if new is not None:
                setattr(module, attr, new)


def _swapped(obj, replace: dict):
    """The wrapped form of a replaced callable or of a tuple holding one, or None."""
    if id(obj) in replace:
        return replace[id(obj)][1]
    if isinstance(obj, tuple) and any(id(v) in replace for v in obj):
        return tuple(replace[id(v)][1] if id(v) in replace else v for v in obj)
    return None


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of several traced processes."""
    out = {"names": defaultdict(lambda: {"calls": 0, "incl": 0.0, "layer_self": 0.0}),
           "layers": defaultdict(float), "rhs_evals": Counter(), "g2_points": 0,
           "distinct_args": Counter(), "missing": set()}
    for s in summaries:
        for name, entry in s["names"].items():
            for key, value in entry.items():
                out["names"][name][key] += value
        for layer, value in s["layers"].items():
            out["layers"][layer] += value
        out["rhs_evals"].update(s["rhs_evals"])
        out["g2_points"] += s["g2_points"]
        out["distinct_args"].update(s["distinct_args"])
        out["missing"].update(s["missing"])
    return out
