"""Spans and counters wrapped around roughflow's public functions from outside.

`Tracer.install()` rebinds every traced public name in every loaded
`roughflow` module that holds it, so `roughflow.rde.resample_lift` and
`roughflow.rde.shift_omega` are traced as well as the defining modules'
names, and wraps class attributes: `FlowMap.map` and `FlowMap.propagate`,
`value`/`jacobian`/`hessian` of every `VectorField` subclass, and
`GroupElement.__init__`.  `uninstall()` puts every original back.

A span's self time is its duration minus the time of the spans it encloses.
Hot functions (tensor products, field evaluations, group-element
construction) are counted, not timed, to keep the overhead down.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _second(args, kwargs, name):
    return args[1] if len(args) > 1 else kwargs[name]


def _gaussian_nodes(args, kwargs):
    count = args[2] if len(args) > 2 else kwargs.get("count", 1)
    return len(_second(args, kwargs, "config").times) * int(count)


# (module, function, metric prefix, (size metric, size function) or None)
SPANS = [
    ("rde", "solve_rde", "rde.solve_rde", None),
    ("rde", "drift_transform_solve", "rde.drift_transform_solve", None),
    ("rde", "solve_driver_flow", "rde.solve_driver_flow", None),
    ("rde", "rds_cocycle_residual", "rde.rds_cocycle_residual", None),
    ("rde", "top_lyapunov_estimate", "rde.top_lyapunov_estimate", None),
    ("drivers", "gaussian_driver", "drivers.gaussian_driver", None),
    ("drivers", "driver_cocycle_residual", "drivers.driver_cocycle_residual", None),
    ("tensor_algebra", "batch_mul", "tensor_algebra.batch_mul",
     ("elements", lambda a, k: max(len(_first(a, k, "a")[0]), len(_second(a, k, "b")[0])))),
    ("paths", "signature_lift", "paths.signature_lift",
     ("nodes", lambda a, k: len(_first(a, k, "x").times))),
    ("paths", "resample_lift", "paths.resample_lift",
     ("nodes", lambda a, k: len(_second(a, k, "new_times")))),
    ("paths", "p_variation", "paths.p_variation", None),
    ("paths", "homogeneous_pvar_distance", "paths.homogeneous_pvar_distance", None),
    ("paths", "geometricity_residual_max", "paths.geometricity_residual_max", None),
    ("gaussian", "sample_gaussian_values", "gaussian.sample_gaussian_values",
     ("nodes", _gaussian_nodes)),
    ("cocycle", "weak_cocycle_residual", "cocycle.weak_cocycle_residual", None),
    ("cocycle", "shift_omega", "cocycle.shift_omega", None),
    ("cocycle", "dyadic_noise", "cocycle.dyadic_noise", None),
    ("cli", "run_experiment", "cli.run_experiment", None),
]
COUNTED = [
    ("tensor_algebra", "tensor_mul", "tensor_algebra.tensor_mul.calls"),
    ("tensor_algebra", "segment_exponential", "tensor_algebra.segment_exponential.calls"),
    ("tensor_algebra", "geodesic_point", "tensor_algebra.geodesic_point.calls"),
]
METHOD_SPANS = [
    ("rde", "FlowMap", "map", "rde.FlowMap.map"),
    ("rde", "FlowMap", "propagate", "rde.FlowMap.propagate"),
]


class Tracer:
    """Counts and self times of the traced roughflow calls in this process."""

    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self._open = []  # per open span: time covered by its child spans
        self._undo = []

    def reset(self):
        self.counts.clear()
        self.self_s.clear()

    def snapshot(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}

    def _span(self, prefix, fn, size):
        counts, self_s, stack = self.counts, self.self_s, self._open
        calls = prefix + ".calls"
        time_key = prefix + ".self_s"
        size_key = f"{prefix}.{size[0]}" if size else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if size_key:
                counts[size_key] += size[1](args, kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[time_key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "roughflow" or name.startswith("roughflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _wrap_attr(self, cls, attr, wrapper):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        if self._undo:
            return
        modules = {name: sys.modules[f"roughflow.{name}"] for name in
                   ("rde", "drivers", "tensor_algebra", "paths", "gaussian", "cocycle", "cli")
                   if f"roughflow.{name}" in sys.modules}
        for mod, fn, prefix, size in SPANS:
            if mod in modules:
                original = getattr(modules[mod], fn)
                self._rebind(original, self._span(prefix, original, size))
        for mod, fn, key in COUNTED:
            original = getattr(modules[mod], fn)
            self._rebind(original, self._counter(key, original))
        for mod, cls_name, attr, prefix in METHOD_SPANS:
            cls = getattr(modules[mod], cls_name)
            self._wrap_attr(cls, attr, self._span(prefix, cls.__dict__[attr], None))
        element = modules["tensor_algebra"].GroupElement
        self._wrap_attr(element, "__init__", self._counter(
            "tensor_algebra.group_elements", element.__dict__["__init__"]))
        for cls in _subclasses(modules["drivers"].VectorField):
            for attr in ("value", "jacobian", "hessian"):
                if attr in cls.__dict__:
                    self._wrap_attr(cls, attr, self._counter(
                        f"drivers.field_evals.{attr}", cls.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._open.clear()


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += [c for c in _subclasses(sub) if c not in out]
    return out
