"""Spans around the solver's public functions, installed from outside it.

`Tracer.installed()` wraps every public function of the traced modules at
every place that binds it.  `continuation`, `ma_dirichlet` and
`functionals` bind functions of other modules with `from ... import`, so
patching only the defining module would miss their calls.  It also wraps
the factorization entry points of `scipy.sparse.linalg`, which the solver
reaches through that module.  On exit every original is put back.

Span i is `names[i]`, `starts[i]`, `ends[i]`, `parents[i]` (the index of
the enclosing span, -1 at the top) and `sizes[i]` (the matrix order for
sparse spans, else -1).  Spans are kept in flat arrays, which the garbage
collector does not scan, and written out by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array

import scipy.sparse.linalg as spla

PACKAGE = "abreu_bvp"
TRACED_MODULES = ("mesh", "lin_ma", "ma_dirichlet", "continuation",
                  "functionals", "estimates")
SPARSE_ENTRY_POINTS = ("spsolve", "splu", "factorized")


class Tracer:
    """Records spans while `recording` is true and the wrappers are in."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.sizes = array("q")
        self.recording = False
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, sized=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.sizes.append(args[0].shape[0] if sized else -1)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _patch(self, namespace, attr, replacement):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def install(self):
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        binders = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in binders:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for attr in SPARSE_ENTRY_POINTS:
            self._patch(spla, attr, self._wrap(f"sparse.{attr}",
                                               getattr(spla, attr),
                                               sized=True))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)
        self.recording = False

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# --- reading spans -----------------------------------------------------------


def _has_ancestor(spans, index, pred):
    parent = spans.parents[index]
    while parent >= 0:
        if pred(spans.names[parent]):
            return True
        parent = spans.parents[parent]
    return False


def outermost(spans, pred):
    """Indices of spans matching `pred` with no matching ancestor."""
    return [i for i, name in enumerate(spans.names)
            if pred(name) and not _has_ancestor(spans, i, pred)]


def busy_seconds(spans, indices):
    return sum(spans.ends[i] - spans.starts[i] for i in indices)
