"""Spans and counters around qmet's public functions, installed from outside.

`Tracer.install()` replaces every public function of every `qmet` module, in
every qmet namespace (and module-level dict) that binds it, with a wrapper
that records one span per call: name, start, end, parent span and point id.
`numpy.linalg.eigh` and `numpy.linalg.eigvalsh` are wrapped the same way and
also count the matrices they decompose (leading dimensions of a stacked
input).  Models built by `qmet.models` factories get a traced `h_of`, and
`HamiltonianModel.u_of` is traced as `models.u_of`.  Nothing inside
`src/qmet` changes; `uninstall()` restores every binding.

Spans stay in memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

NO_POINT = -1


def _stack_items(a, *_, **__) -> int:
    """Number of matrices in a (..., d, d) input."""
    return int(np.prod(np.shape(a)[:-2], dtype=np.int64))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.point_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.items = array("i")
        self._stack: list[int] = []
        self.point = NO_POINT
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -----------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, items_of=None, result_hook=None):
        nid = self._name(name)
        name_id, parent, point_id = self.name_id, self.parent, self.point_id
        start, end, failed, items = self.start, self.end, self.failed, self.items
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            point_id.append(tracer.point)
            start.append(0.0)
            end.append(0.0)
            failed.append(0)
            items.append(items_of(*args, **kwargs) if items_of is not None else 1)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            return result if result_hook is None else result_hook(result)

        return traced

    # --- installation --------------------------------------------------------

    def _patch(self, owner, key, value):
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        self._patches.append((owner, key, original))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        import qmet
        from qmet import models

        modules = [qmet] + [importlib.import_module(f"qmet.{m.name}")
                            for m in pkgutil.iter_modules(qmet.__path__)]

        def trace_model_h(result):
            if isinstance(result, models.HamiltonianModel):
                return dataclasses.replace(result, h_of=self.wrap("models.h_of", result.h_of))
            return result

        wrapped = {}  # id(original) -> (original, wrapper)
        for mod in modules[1:]:
            short = mod.__name__.split(".")[-1]
            for key, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not key.startswith("_")
                        and obj.__module__ == mod.__name__):
                    hook = trace_model_h if short == "models" else None
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{key}", obj, result_hook=hook))

        def wrapper_of(obj):
            original, wrapper = wrapped.get(id(obj), (None, None))
            return wrapper if original is obj else None

        for mod in modules:
            for key, obj in list(vars(mod).items()):
                if wrapper_of(obj) is not None:
                    self._patch(mod, key, wrapper_of(obj))
                elif isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                    for k, v in list(obj.items()):
                        if wrapper_of(v) is not None:
                            self._patch(obj, k, wrapper_of(v))

        self._patch(models.HamiltonianModel, "u_of",
                    self.wrap("models.u_of", models.HamiltonianModel.u_of))
        self._patch(np.linalg, "eigh", self.wrap("numpy.eigh", np.linalg.eigh, _stack_items))
        self._patch(np.linalg, "eigvalsh",
                    self.wrap("numpy.eigvalsh", np.linalg.eigvalsh, _stack_items))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # --- read-out ------------------------------------------------------------

    def columns(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "point": np.frombuffer(self.point_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "failed": np.frombuffer(self.failed, dtype=np.int8),
            "items": np.frombuffer(self.items, dtype=np.int32),
        }

    def summary(self, points: int) -> dict:
        """Per-name calls, self time, latency percentiles and failures.

        Only spans inside a point count.  Counts and self time are divided
        by `points`; p50/p99 are of the inclusive call duration in us.
        Self time is span duration minus the time its child spans cover.
        """
        col = self.columns()
        dur = col["end"] - col["start"]
        has_parent = col["parent"] >= 0
        child = np.bincount(col["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        inside = col["point"] != NO_POINT
        out = {}
        for nid, name in enumerate(self.names):
            sel = inside & (col["name_id"] == nid)
            d = dur[sel]
            out[name] = {
                "calls": int(sel.sum()) / points,
                "self_s": float(self_time[sel].sum()) / points,
                "p50_us": float(np.percentile(d, 50)) * 1e6 if d.size else 0.0,
                "p99_us": float(np.percentile(d, 99)) * 1e6 if d.size else 0.0,
                "failed": int(col["failed"][sel].sum()) / points,
                "matrices": int(col["items"][sel].sum()) / points,
            }
        return out

    def _eig_items(self) -> np.ndarray:
        """Matrices each span decomposed by eigh or eigvalsh (0 for other spans)."""
        col = self.columns()
        eig = [self._ids[n] for n in ("numpy.eigh", "numpy.eigvalsh") if n in self._ids]
        return np.where(np.isin(col["name_id"], eig), col["items"], 0)

    def eig_per_call(self, name: str) -> float:
        """Matrices decomposed inside one call of `name`, on average.

        Spans are recorded in call order, so a span's descendants are the
        contiguous run of later spans that start before it ends.
        """
        col = self.columns()
        calls = np.flatnonzero(col["name_id"] == self._ids[name])
        if calls.size == 0:
            return 0.0
        before = np.concatenate([[0], np.cumsum(self._eig_items())])
        last = np.searchsorted(col["start"], col["end"][calls], side="left")
        return float((before[last] - before[calls + 1]).sum()) / calls.size

    def eig_in_point(self, point_id: int) -> int:
        """Matrices decomposed inside one point."""
        return int(self._eig_items()[self.columns()["point"] == point_id].sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())
