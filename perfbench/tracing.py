"""Spans and counters around the public functions of every circdeg module.

The tracer rebinds each public function's name in every circdeg module that
holds it (the defining module, each importer and the package namespace) to
a wrapper that records a span: name, start, end, parent span and op.  No
program file changes; ``uninstall`` puts the original bindings back.
Private helpers are not wrapped, so their time counts as self time of the
public function that called them.

Spans live in flat arrays while the workload runs and are summarized, and
written out, after it ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from workloads import phi, tau


def _census_masks(p, d, enumeration_limit=None):
    """Masks prime_census walks: 2^d - 2 up to its enumeration limit, else 0."""
    if enumeration_limit is None:
        enumeration_limit = sys.modules["circdeg.census"].DEFAULT_ENUMERATION_LIMIT
    return 2**d - 2 if d <= enumeration_limit else 0


# Work sizes computed from the arguments at a function boundary.  They are
# derived from the inputs, not measured, and are labelled so in the output.
WORK_SIZES = {
    "circulant.fixing_subgroup": (
        "circulant.fixing_subgroup.unit_products",
        lambda symbol: phi(symbol.n) * len(symbol.elements),
    ),
    "cyclotomic.eigenvalue_matrix": (
        "cyclotomic.eigen_cells",
        lambda symbol: symbol.n * phi(symbol.n) * len(symbol.elements),
    ),
    "census.prime_census": ("census.masks_visited", _census_masks),
    "integral.count_connected_integral_bruteforce": (
        "integral.masks",
        lambda n: 2 ** (tau(n) - 1),
    ),
}


def circdeg_modules() -> dict[str, object]:
    """Loaded circdeg submodules by short name."""
    return {
        name.split(".", 1)[1]: module
        for name, module in sorted(sys.modules.items())
        if name.startswith("circdeg.") and module is not None
    }


def public_functions(modules: dict[str, object]) -> dict[str, object]:
    """'module.function' -> function, for functions each module defines."""
    out = {}
    for short, module in modules.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                out[f"{short}.{name}"] = obj
    return out


def lru_caches(modules: dict[str, object]) -> dict[str, object]:
    """'module.cache' -> lru-cached function (leading underscore dropped)."""
    return {
        f"{short}.{name.lstrip('_')}": obj
        for short, module in modules.items()
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__
    }


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.package = sys.modules["circdeg"]
        self.modules = circdeg_modules()
        self.functions = public_functions(self.modules)
        self.names = list(self.functions)
        self.module_of = [name.split(".")[0] for name in self.names]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.current_op = -1
        self.errors: Counter = Counter()
        self.work: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        start, end, name, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack)
        module = self.module_of[index]
        sized = WORK_SIZES.get(self.names[index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sized is not None:
                self.work[sized[0]] += sized[1](*args, **kwargs)
            span = len(start)
            name.append(index)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                caller = stack[-2]
                if caller < 0 or self.module_of[name[caller]] != module:
                    self.errors[module] += 1
                raise
            finally:
                end[span] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        targets = [self.package, *self.modules.values()]
        for index, qualname in enumerate(self.names):
            fn = self.functions[qualname]
            wrapper = self._wrap(index, fn)
            for module in targets:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass self time and calls per function and module, and counters."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        nested = a["parent"] >= 0
        children = np.zeros_like(duration)
        np.add.at(children, a["parent"][nested], duration[nested])
        self_time = duration - children
        count = len(self.names)
        fn_self = np.bincount(a["name"], weights=self_time, minlength=count)
        fn_calls = np.bincount(a["name"], minlength=count)
        out: dict[str, float] = {}
        for module in sorted(set(self.module_of)):
            out[f"{module}.self_s"] = 0.0
            out[f"{module}.errors"] = self.errors[module] / passes
        for index, qualname in enumerate(self.names):
            out[f"{qualname}.self_s"] = float(fn_self[index]) / passes
            out[f"{qualname}.calls"] = int(fn_calls[index]) / passes
            out[f"{self.module_of[index]}.self_s"] += float(fn_self[index]) / passes
        for metric, _ in WORK_SIZES.values():
            out[metric] = self.work[metric] / passes
        out["trace.root_s"] = float(duration[~nested].sum()) / passes
        out["trace.spans"] = len(duration) / passes
        census_index = self.names.index("census.prime_census")
        under_census = nested.copy()
        under_census[nested] = a["name"][a["parent"][nested]] == census_index
        kept = int(np.sum(under_census & (a["name"] == self.names.index("census.canonical_form"))))
        tried = int(np.sum(under_census & (a["name"] == self.names.index("circulant.fixing_subgroup"))))
        out["census.keep_ratio"] = kept / tried if tried else 0.0
        out["census.keep_ratio.base"] = tried / passes
        return out
