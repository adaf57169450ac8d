"""Span tracing of the program's layers, installed from the benchmark.

``Tracer.install`` replaces the public functions and methods of the
program's layer modules with timing wrappers, in the modules' namespaces
and wherever another program module imported them by name.  The program
itself is not edited, and a run without ``--trace 1`` never imports this
module, so untraced timings carry no wrapper cost.

A span is (name, start, end, parent); spans stay in memory and are
written out once, at the end of the run.  Self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
import types

LAYERS = ("tensor", "graph", "models", "prompts", "optim", "pretrain",
          "tuning", "data", "checkpoint")

# Dunder methods are value plumbing (Tensor arithmetic routes through the
# wrapped module-level ops anyway); only the graph constructor is a layer
# boundary worth a span.
DUNDERS = {("graph", "Graph", "__init__")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.edge_bytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._edge_rows: list[int] = []  # directed-edge count of the graph in model_forward
        self.units: list[tuple[str, int, int]] = []  # (name, span, end of its descendants)

    # -- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def unit(self, name: str):
        """A span around one benchmark operation."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.units.append((name, idx, len(self.names)))

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        is_op = layer == "tensor" and name.count(".") == 1
        is_forward = name == "models.model_forward"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            if is_forward:
                tracer._edge_rows.append(args[1].num_directed_edges)
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_forward:
                    tracer._edge_rows.pop()
                tracer._close(idx)
            if is_op and tracer._edge_rows and hasattr(result, "data") \
                    and result.data.shape[0] == tracer._edge_rows[-1]:
                tracer.edge_bytes[idx] = result.data.nbytes
            if isinstance(result, types.FunctionType):
                # prompt providers hand back the per-layer closure
                return tracer._wrap(result, f"{name}/{result.__name__}", layer)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> int:
        """Wrap every public function and method of the layer modules.

        Returns the number of wrapped callables.
        """
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"edgeprompt.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped = self._wrap(obj, f"{layer}.{attr}", layer)
                    originals[id(obj)] = (obj, wrapped)
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # names imported with ``from .x import f`` elsewhere in the package
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "edgeprompt" and not mod_name.startswith("edgeprompt."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return len(originals)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_") or (layer, cls.__name__, attr) in DUNDERS
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(obj, name, layer))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, name, layer)))

    # -- analysis -------------------------------------------------------

    def self_times(self) -> list[int]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= dur[idx]
        return own

    def write(self, path, summary: dict) -> None:
        index: dict[str, int] = {}
        records = []
        for i, name in enumerate(self.names):
            k = index.setdefault(name, len(index))
            records.append([k, self.start[i], self.end[i], self.parent[i]])
        payload = {"names": list(index), "span_fields": ["name", "start_ns", "end_ns", "parent"],
                   "spans": records, "units": self.units, "summary": summary}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
