"""Span tracer that wraps ordtensor's public functions from outside.

The library has no instrumentation of its own, so the benchmark patches
each traced name where callers look it up: a function imported by name
into several modules is replaced in every one of them, a method on its
class.  Each wrapper records one span in memory (name, start, end,
parent span, work item); the arrays are written out when the run ends.

``ordinal.compare`` and ``Ordinal.__add__`` run tens of millions of
times per ``verify all``, far too often for spans, so they only count
calls.  Work done by the benchmark's own correctness checks runs inside
a ``check.*`` span: spans opened below it are flagged and left out of
the layer totals, and counter increments made during it are subtracted.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (layer, span name, owner, attribute): owner is a module path or
# "module:Class".  A target missing at some later commit is skipped and
# its metrics read 0.
SPAN_TARGETS = [
    ("schreier", "decompose", "ordtensor.schreier", "decompose"),
    ("schreier", "split_blocks", "ordtensor.schreier", "split_blocks"),
    ("schreier", "member", "ordtensor.schreier", "member"),
    ("schreier", "is_maximal", "ordtensor.schreier", "is_maximal"),
    ("weights", "p_weight", "ordtensor.weights", "p_weight"),
    ("weights", "q_weight", "ordtensor.weights", "q_weight"),
    ("weights", "p_prefix_weights", "ordtensor.weights", "p_prefix_weights"),
    ("weights", "q_prefix_weights", "ordtensor.weights", "q_prefix_weights"),
    ("weights", "avg2_terms", "ordtensor.weights", "avg2_terms"),
    ("weights", "verify_perm", "ordtensor.weights", "verify_perm"),
    ("trees", "build_tree", "ordtensor.trees", "build_tree"),
    ("trees", "block_map_path", "ordtensor.trees", "block_map_path"),
    ("trees", "cantor_scheme", "ordtensor.trees", "cantor_scheme"),
    ("trees", "node_function", "ordtensor.trees:TreeHandle", "node_function"),
    ("trees", "children", "ordtensor.trees:TreeHandle", "children"),
    ("space", "compatible", "ordtensor.space", "compatible"),
    ("space", "rademacher", "ordtensor.space", "rademacher"),
    ("space", "pair", "ordtensor.space", "pair"),
    ("space", "pair", "ordtensor.space:AtomicMeasure", "pair"),
    ("space", "step_call", "ordtensor.space:StepFunction", "__call__"),
    ("space", "normalize_union", "ordtensor.space", "normalize_union"),
    ("space", "union_contains", "ordtensor.space", "union_contains"),
    ("space", "weak2_norm_squared_exact", "ordtensor.space", "weak2_norm_squared_exact"),
    ("tensor", "pi_norm", "ordtensor.tensor", "pi_norm"),
    ("tensor", "weak_1_norm_pi", "ordtensor.tensor", "weak_1_norm_pi"),
    ("tensor", "weak_2_norm_pi_lower", "ordtensor.tensor", "weak_2_norm_pi_lower"),
    ("tensor", "pi_solve", "ordtensor.tensor:PiSolver", "solve"),
    ("tensor", "linprog", "ordtensor.tensor", "linprog"),
    ("harness", "main", "ordtensor.harness", "main"),
    ("harness", "family", "ordtensor.harness", "run_family_suite"),
    ("harness", "perm", "ordtensor.harness", "run_perm_suite"),
    ("harness", "sharpness", "ordtensor.harness", "run_sharpness"),
    ("harness", "blocking", "ordtensor.harness", "run_blocking_demo"),
    ("harness", "groth", "ordtensor.harness", "run_groth_probe"),
    ("harness", "lower_bound", "ordtensor.harness", "run_lower_bound_probe"),
]

# (counter name, owner, attribute) for call counters without spans
COUNT_TARGETS = [
    ("ordinal.compare.calls", "ordtensor.ordinal", "compare"),
    ("ordinal.add.calls", "ordtensor.ordinal:Ordinal", "__add__"),
]

# the entry point that ``verify all`` enters through: its self time is
# the work no named harness or layer function covers, so it is left out
# of the layer totals and of ``trace.self_sum_share``
ENTRY_SPANS = frozenset({"harness.main"})

# counters bumped by the decompose and linprog wrappers
EVENT_COUNTERS = (
    "schreier.elements_materialized",
    "schreier.budget_skips",
    "tensor.linprog.nit",
)

_MISSING = object()


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = sys.modules.get(mod_name)
    if mod is None or not cls_name:
        return mod
    return getattr(mod, cls_name, None)


def _count_value(counter) -> int:
    # the next value of an itertools.count, read without advancing it
    return int(repr(counter)[len("count(") : -1])


class _CountingStream:
    """Iterator that counts the stream elements decompose pulls."""

    __slots__ = ("_it", "n")

    def __init__(self, stream):
        self._it = iter(stream)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        v = next(self._it)
        self.n += 1
        return v


class Tracer:
    """In-memory spans and counters for one process.

    ``install()`` patches every target, ``uninstall()`` restores the
    originals; between the two, every wrapped call is recorded.
    """

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sid = array("q")
        self.nid = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.item = array("q")
        self.flag = array("b")
        self.item_id = -1
        self._next_sid = 0
        self._stack: list[int] = []
        self._check_depth = 0
        self._patched: list[tuple[object, str, object]] = []
        self._counts = {name: itertools.count() for name, _, _ in COUNT_TARGETS}
        self.events = dict.fromkeys(EVENT_COUNTERS, 0)
        self._check_counts = dict.fromkeys(self._counts, 0)

    # -- patching ---------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        full = f"{layer}.{name}"
        if full not in self._name_ids:
            self._name_ids[full] = len(self.names)
            self.names.append(full)
            self.layers.append(layer)
        return self._name_ids[full]

    def _replace(self, owner: str, attr: str, make):
        target = _resolve(owner)
        orig = getattr(target, attr, _MISSING) if target is not None else _MISSING
        if orig is _MISSING:
            return
        wrapper = make(orig)
        if ":" in owner:
            holders = [target]
        else:
            # every loaded package module that imported the name
            holders = [
                m
                for key, m in list(sys.modules.items())
                if key.split(".")[0] == "ordtensor" and getattr(m, attr, None) is orig
            ]
        for h in holders:
            self._patched.append((h, attr, orig))
            setattr(h, attr, wrapper)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        hooks = {"decompose": self._decompose_hook, "linprog": self._linprog_hook}
        for layer, name, owner, attr in SPAN_TARGETS:
            nid = self._name_id(layer, name)
            hook = hooks.get(attr, lambda f: f)
            self._replace(owner, attr, lambda f, nid=nid, hook=hook: self._span_wrapper(hook(f), nid))
        for name, owner, attr in COUNT_TARGETS:
            self._replace(owner, attr, lambda f, c=self._counts[name]: _counting_wrapper(f, c))

    def uninstall(self):
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    # -- wrappers ---------------------------------------------------

    def _span_wrapper(self, fn, nid: int):
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kw):
            sid = self._next_sid
            self._next_sid = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf()
            try:
                return fn(*args, **kw)
            finally:
                t1 = perf()
                stack.pop()
                self._record(sid, nid, t0, t1, parent)

        traced.__wrapped__ = fn
        return traced

    def _record(self, sid, nid, t0, t1, parent):
        self.sid.append(sid)
        self.nid.append(nid)
        self.t0.append(t0)
        self.t1.append(t1)
        self.parent.append(parent)
        self.item.append(self.item_id)
        self.flag.append(self._check_depth > 0)

    def _bump(self, name: str, n: int = 1):
        if self._check_depth == 0:
            self.events[name] += n

    def _decompose_hook(self, fn):
        from ordtensor.schreier import BudgetExceeded

        def decompose(fam, stream, k, *args, **kw):
            counted = _CountingStream(stream)
            try:
                return fn(fam, counted, k, *args, **kw)
            except BudgetExceeded:
                self._bump("schreier.budget_skips")
                raise
            finally:
                self._bump("schreier.elements_materialized", counted.n)

        return decompose

    def _linprog_hook(self, fn):
        def linprog(*args, **kw):
            res = fn(*args, **kw)
            self._bump("tensor.linprog.nit", int(getattr(res, "nit", 0) or 0))
            return res

        return linprog

    @contextmanager
    def check(self, kind: str):
        """Span for the benchmark's own checking; excluded from layer totals."""
        nid = self._name_id("check", kind)
        before = {k: _count_value(c) for k, c in self._counts.items()}
        sid = self._next_sid
        self._next_sid = sid + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self._check_depth += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._record(sid, nid, t0, t1, parent)
            self._check_depth -= 1
            for k, c in self._counts.items():
                self._check_counts[k] += _count_value(c) - before[k]

    # -- results ----------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {
            k: _count_value(c) - self._check_counts[k] for k, c in self._counts.items()
        }

    def snapshot(self) -> tuple:
        """Marker for :meth:`summary` over the spans recorded after it."""
        return (len(self.sid), self.counts(), dict(self.events))

    def summary(self, mark: tuple) -> dict:
        """Per-name calls and self time, counters, for spans since ``mark``."""
        start, counts0, events0 = mark
        n = len(self.sid) - start
        out: dict = {"calls": {}, "self_s": {}, "layer_self_s": {}}
        if n:
            sid = np.array(self.sid[start:], dtype=np.int64)
            local = sid - sid.min()
            dur = np.empty(n)
            dur[local] = np.array(self.t1[start:]) - np.array(self.t0[start:])
            nid = np.empty(n, dtype=np.int64)
            nid[local] = np.array(self.nid[start:], dtype=np.int64)
            parent = np.array(self.parent[start:], dtype=np.int64) - sid.min()
            parent[parent < 0] = -1
            par = np.empty(n, dtype=np.int64)
            par[local] = parent
            flag = np.empty(n, dtype=bool)
            flag[local] = np.array(self.flag[start:], dtype=bool)
            has_parent = par >= 0
            child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
            self_t = dur - child
            keep = ~flag
            calls = np.bincount(nid[keep], minlength=len(self.names))
            selfs = np.bincount(nid[keep], weights=self_t[keep], minlength=len(self.names))
            for i, name in enumerate(self.names):
                out["calls"][name] = int(calls[i])
                out["self_s"][name] = float(selfs[i])
                layer = self.layers[i]
                if layer != "check" and name not in ENTRY_SPANS:
                    out["layer_self_s"][layer] = out["layer_self_s"].get(layer, 0.0) + float(selfs[i])
        counts = self.counts()
        out["counts"] = {k: counts[k] - counts0[k] for k in counts}
        out["events"] = {k: self.events[k] - events0[k] for k in self.events}
        return out

    def write(self, path):
        """Write every recorded span as arrays (names indexed by ``nid``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            sid=np.array(self.sid, dtype=np.int64),
            nid=np.array(self.nid, dtype=np.int64),
            start=np.array(self.t0),
            end=np.array(self.t1),
            parent=np.array(self.parent, dtype=np.int64),
            item=np.array(self.item, dtype=np.int64),
            check=np.array(self.flag, dtype=np.int8),
        )


def _counting_wrapper(fn, counter):
    tick = counter.__next__

    def counted(*args):
        tick()
        return fn(*args)

    counted.__wrapped__ = fn
    return counted
