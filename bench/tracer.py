"""Spans and call counts around rankcodes' public functions, from outside.

A Tracer replaces each traced name where its callers look it up: methods
on their class, module functions in every rankcodes module that imported
them by name (gabidulin, subspace and directsum bind `ext_solve` and
`rank_of_vector` at import time, so patching qlinalg alone would miss
them), and the field operations on the one tower instance.  uninstall()
restores the originals, so untraced windows run the unmodified library.

A span is (id, parent id, name, trial id, start ns, end ns).  Field
operations are counted, never timed, so their sheer number does not
dominate the trace.  Spans stay in memory until write() at the end of a run.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, class, method, span name)
SPANNED_METHODS = [
    ("qlinalg", "CoordinateSolver", "solve", "qlinalg.coord_solve"),
    ("linpoly", "LinearizedPoly", "root_space_basis", "linpoly.root_space"),
    ("gabidulin", "GabidulinCode", "encode", "gabidulin.encode"),
    ("gabidulin", "GabidulinCode", "decode", "gabidulin.decode"),
    ("subspace", "SubspaceSubcode", "to_parent", "subspace.to_parent"),
    ("subspace", "SubspaceSubcode", "from_parent", "subspace.from_parent"),
    ("directsum", "DirectSumCode", "encode", "directsum.encode"),
    ("directsum", "DirectSumCode", "project", "directsum.project"),
    ("directsum", "DirectSumCode", "decode", "directsum.decode"),
]
COUNTED_METHODS = [
    ("linpoly", "LinearizedPoly", "evaluate", "linpoly.evaluate"),
    ("gabidulin", "GabidulinCode", "syndromes", "gabidulin.syndromes"),
]
# (defining module, function, span name)
SPANNED_FUNCTIONS = [
    ("qlinalg", "ext_solve", "qlinalg.ext_solve"),
    ("qlinalg", "rank_of_vector", "qlinalg.rank"),
    ("qlinalg", "rank_q", "qlinalg.rank"),
    ("directsum", "sample_channel_error", "directsum.sample"),
]
FIELD_OPS = ("mul", "add", "inv", "frobenius")


class Tracer:
    def __init__(self, tower):
        self.tower = tower
        self.spans = []
        self.calls = Counter()
        self.trial = -1
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo = []

    def _spanned(self, name, fn):
        spans, calls, stack, ids = self.spans, self.calls, self._stack, self._ids
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            calls[name] += 1
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, tracer.trial, start, end))
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for methods, wrap in ((SPANNED_METHODS, self._spanned),
                              (COUNTED_METHODS, self._counted)):
            for modname, clsname, meth, name in methods:
                cls = getattr(sys.modules[f"rankcodes.{modname}"], clsname)
                self._set(cls, meth, wrap(name, cls.__dict__[meth]))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "rankcodes" or key.startswith("rankcodes.")]
        for modname, func, name in SPANNED_FUNCTIONS:
            original = getattr(sys.modules[f"rankcodes.{modname}"], func)
            wrapper = self._spanned(name, original)
            for mod in modules:
                if mod.__dict__.get(func) is original:
                    self._set(mod, func, wrapper)
        for op in FIELD_OPS:
            self._set(self.tower, op, self._counted(f"field.{op}", getattr(self.tower, op)))

    def uninstall(self):
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is None:
                delattr(owner, attr)  # the tower's instance override
            else:
                setattr(owner, attr, previous)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis --------------------------------------------------------

    def totals(self):
        """name -> (span count, inclusive ns, self ns).  Spans nest strictly
        (one thread), so self time is duration minus the children's."""
        child_ns = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for sid, _, name, _, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns.get(sid, 0)
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of `child_name` spans directly inside a `parent_name` span."""
        names = {sid: name for sid, _, name, _, _, _ in self.spans}
        return sum(1 for _, parent, name, _, _, _ in self.spans
                   if name == child_name and names.get(parent) == parent_name)

    def write(self, fh, label: str):
        for sid, parent, name, trial, start, end in self.spans:
            fh.write(json.dumps([label, sid, parent, name, trial, start, end]) + "\n")
