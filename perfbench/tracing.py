"""Per-layer tracing applied from outside the package.

``Tracer.install`` replaces the public functions of each layer module with
wrappers, in every package namespace that imported them, and wraps a few
hot class attributes.  Spanned calls record (op, span id, parent id, name,
start, end); a layer's self time is its span time minus the time of the
spans it caused.  Hot, tiny calls are only counted: their time stays in the
caller's self time.  ``enumerate_subspaces`` returns a lazy iterator, so
each ``next`` on it is timed as well, aggregated rather than kept as a span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "codes", "counting", "linalg", "poset", "verify")
NAMESPACES = LAYERS + ("gf", "random_instances")

# Called per subspace, row or vector: counted, not timed.
COUNT_ONLY = {
    "codes.generalized_weight",
    "codes.poset_weight",
    "codes.support_of_vector",
    "linalg.contains",
}
# Class attributes: (module, class, attribute, timed)
CLASS_ATTRS = (
    ("gf", "FiniteField", "add", False),
    ("gf", "FiniteField", "sub", False),
    ("gf", "FiniteField", "mul", False),
    ("gf", "FiniteField", "inv", False),
    ("gf", "FiniteField", "validate", False),
    ("linalg", "Subspace", "__post_init__", False),
    ("poset", "Poset", "ideal_mask", False),
    ("poset", "Poset", "is_total_on", True),
    ("poset", "Poset", "width_and_min_chain_partition", True),
)
ITER_NAME = "linalg.enumerate_subspaces"
YIELDED = "linalg.subspaces_yielded"

clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.op = -1
        self.stack = []  # open frames: [span id, start ns, child ns]
        self.spans = []
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.yielded_by_op = defaultdict(int)
        self.next_id = 0

    # -- wrappers -----------------------------------------------------------

    def _open(self):
        self.next_id += 1
        frame = [self.next_id, clock(), 0]
        self.stack.append(frame)
        return frame

    def _close(self, name, frame, keep=True):
        end = clock()
        self.stack.pop()
        dur = end - frame[1]
        self.self_ns[name] += dur - frame[2]
        parent = self.stack[-1] if self.stack else None
        if parent:
            parent[2] += dur
        if keep:
            self.spans.append((self.op, frame[0], parent[0] if parent else 0, name, frame[1], end))

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame)

        return functools.wraps(fn)(wrapper)

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def nesting_check(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if out:
                calls[name + ".true"] += 1
            return out

        return functools.wraps(fn)(wrapper)

    def subspace_iterator(self, fn):
        timed = self.timed(ITER_NAME, fn)
        tracer = self

        class TimedIterator:
            __slots__ = ("it",)

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                frame = tracer._open()
                try:
                    item = next(self.it)
                finally:
                    tracer._close(ITER_NAME, frame, keep=False)
                tracer.calls[YIELDED] += 1
                tracer.yielded_by_op[tracer.op] += 1
                return item

        def wrapper(*args, **kwargs):
            return TimedIterator(timed(*args, **kwargs))

        return functools.wraps(fn)(wrapper)

    # -- installation ---------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("posetcodes")
        mods = {m: importlib.import_module(f"posetcodes.{m}") for m in NAMESPACES}
        namespaces = [pkg, *mods.values()]
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer == "cli" and attr != "main":
                    continue  # parsing and rendering stay in cli.main's self time
                name = f"{layer}.{attr}"
                if name == ITER_NAME:
                    wrapped = self.subspace_iterator(fn)
                elif name == "linalg.is_subspace_of":
                    wrapped = self.nesting_check(name, fn)
                elif name in COUNT_ONLY:
                    wrapped = self.counted(name, fn)
                else:
                    wrapped = self.timed(name, fn)
                for ns in namespaces:
                    for alias, obj in list(vars(ns).items()):
                        if obj is fn:
                            setattr(ns, alias, wrapped)
        for layer, cls_name, attr, timed in CLASS_ATTRS:
            cls = getattr(mods[layer], cls_name)
            name = f"{layer}.{attr}" if layer != "linalg" else f"linalg.{cls_name}.{attr}"
            wrap = self.timed if timed else self.counted
            setattr(cls, attr, wrap(name, getattr(cls, attr)))

    # -- output -----------------------------------------------------------------

    def summary(self):
        return {
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "yielded_by_op": {str(k): v for k, v in self.yielded_by_op.items()},
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w") as f:
            for op, sid, parent, name, start, end in self.spans:
                f.write(json.dumps([op, sid, parent, name, start, end]) + "\n")
