"""In-memory span tracer for the benchmark's traced run.

``Tracer.installed()`` wraps the public functions listed in ``LAYERS`` in
every namespace that binds them (``sample_points`` is imported by name into
``cli``, ``sos`` and ``vertex``; ``numpy.linalg`` functions are reached as
``np.linalg.*``), and patches the two ``Operator`` methods on the class.
Each call records one span (name, start, end, parent, request) in memory;
the wrappers are removed again when the context exits.  Self time is a
span's duration minus the durations of its child spans.

Alongside the spans the tracer keeps computed kernel counts, labelled as
computed because they come from array shapes, not from hardware counters:
dense complex products cost 8 n^3 flops, a new operator holds 16 dim^2
bytes, and ``sos.dyn_double_row`` calls are keyed by their arguments to
count how many of them rebuild a double row already built in the pass.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# layer -> public functions timed in that layer, reported as
# <layer>.<function>.<stat>.  "Operator.*" entries are methods patched on
# the class.
LAYERS = {
    "tensor": ("charge_resolved", "embed", "partial_transpose", "block", "Operator.matmul", "Operator.new"),
    "sos": (
        "dyn_monodromy", "dyn_double_row", "dyn_block", "sos_transfer",
        "gauge_row_minus", "gauge_row_plus", "sos_identity_suite",
    ),
    "vertex": (
        "bulk_monodromy", "hat_monodromy", "double_row", "transfer_xxz",
        "hamiltonian_direct", "vertex_identity_suite",
    ),
    "bethe": ("find_bethe_solutions", "bethe_state", "vertex_eigenstate", "branch_eigenvalue"),
    "partition": (
        "z_contraction", "z_determinant", "recursion_value",
        "polynomial_degree_residual", "z_property_suite",
    ),
    "params": ("sample_points", "assert_generic"),
    "cli": ("run_verify", "run_bethe", "run_spectrum", "run_partition", "render", "load_config"),
    "numpy.linalg": ("eigvals", "inv", "det"),
}
CLASS_METHODS = {"Operator.matmul": "__matmul__", "Operator.new": "__post_init__"}
STATS = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))

# computed kernel counts: metric name -> unit
COMPUTED = {
    "tensor.Operator.matmul.gflop": "gflop",
    "tensor.Operator.new.mb": "MB",
    "sos.dyn_double_row.distinct_ratio": "ratio",
    "bethe.find_bethe_solutions.yield": "ratio",
}


def traced_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.{stat}": unit for name in traced_names() for stat, unit in STATS}
    units.update(COMPUTED)
    return units


class Tracer:
    """Spans and counts of one traced workload pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.request = []
        self.outermost = []
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self.flops = 0
        self.operator_bytes = 0
        self.double_row_keys: set = set()
        self.double_row_calls = 0
        self.starts_requested = 0
        self.solutions_returned = 0
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        depth = self._depth.get(nid, 0)
        self._depth[nid] = depth + 1
        parent = self._stack[-1] if self._stack else -1
        self.name.append(nid)
        self.parent.append(parent)
        self.request.append(self.request[parent] if parent >= 0 else i)
        self.outermost.append(depth == 0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int, nid: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    @contextmanager
    def span(self, name: str):
        """A root span, e.g. one client request."""
        nid = self._id(name)
        i = self._open(nid)
        try:
            yield
        finally:
            self._close(i, nid)

    def _wrap(self, name: str, fn, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i, nid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- computed counts -----------------------------------------------
    def _after_matmul(self, args, kwargs, result):
        n = args[0].data.shape[0]
        self.flops += 8 * n**3

    def _after_new(self, args, kwargs, result):
        dim = args[0].data.shape[0]
        self.operator_bytes += 16 * dim * dim

    def _after_double_row(self, sig):
        def after(args, kwargs, result):
            self.double_row_calls += 1
            self.double_row_keys.add(tuple(sig.bind(*args, **kwargs).arguments.values()))
        return after

    def _after_find(self, sig):
        def after(args, kwargs, result):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            guesses = b.arguments.get("guesses")
            self.starts_requested += len(guesses) if guesses else b.arguments.get("n_starts", 0)
            self.solutions_returned += len(result)
        return after

    # -- install / remove ----------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every listed function while the context is open."""
        namespaces = [m for n, m in list(sys.modules.items()) if n == "sosxxz" or n.startswith("sosxxz.")]
        namespaces.append(np.linalg)
        patches = []
        try:
            for layer, fns in LAYERS.items():
                home = sys.modules.get(layer if layer == "numpy.linalg" else f"sosxxz.{layer}")
                for fn in fns:
                    name = f"{layer}.{fn}"
                    if fn in CLASS_METHODS:
                        cls = getattr(home, fn.split(".")[0], None)
                        attr = CLASS_METHODS[fn]
                        orig = getattr(cls, "__dict__", {}).get(attr)
                        if orig is None:
                            self.missing.append(name)
                            continue
                        after = self._after_matmul if attr == "__matmul__" else self._after_new
                        setattr(cls, attr, self._wrap(name, orig, after))
                        patches.append((cls, attr, orig))
                        continue
                    orig = getattr(home, fn, None)
                    if orig is None:
                        self.missing.append(name)
                        continue
                    after = None
                    if name == "sos.dyn_double_row":
                        after = self._after_double_row(inspect.signature(orig))
                    elif name == "bethe.find_bethe_solutions":
                        after = self._after_find(inspect.signature(orig))
                    wrapped = self._wrap(name, orig, after)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is orig:
                                setattr(ns, key, wrapped)
                                patches.append((ns, key, orig))
            yield self
        finally:
            for target, key, orig in reversed(patches):
                setattr(target, key, orig)

    # -- results -------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer totals of this pass, keyed by metric name."""
        name = np.asarray(self.name, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        self_t = dur - child
        outer = np.asarray(self.outermost, dtype=bool)
        out = {}
        for traced in traced_names():
            nid = self._name_id.get(traced)
            sel = name == nid if nid is not None else np.zeros(len(name), dtype=bool)
            out[f"{traced}.calls"] = int(sel.sum())
            out[f"{traced}.self_s"] = float(self_t[sel].sum())
            out[f"{traced}.total_s"] = float(dur[sel & outer].sum())
        out["tensor.Operator.matmul.gflop"] = self.flops / 1e9
        out["tensor.Operator.new.mb"] = self.operator_bytes / 1e6
        out["sos.dyn_double_row.distinct_ratio"] = (
            len(self.double_row_keys) / self.double_row_calls if self.double_row_calls else 0.0
        )
        out["bethe.find_bethe_solutions.yield"] = (
            self.solutions_returned / self.starts_requested if self.starts_requested else 0.0
        )
        return out

    def write_spans(self, fh, header: dict) -> None:
        """Append this pass's spans as JSON lines: a header, then one span per line."""
        fh.write(json.dumps({**header, "names": self.names, "missing": self.missing}) + "\n")
        for row in zip(self.name, self.start, self.end, self.parent, self.request):
            fh.write(json.dumps(row) + "\n")
