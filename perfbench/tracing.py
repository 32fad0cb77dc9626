"""Span tracer that wraps genalign's public functions from outside the package.

Every public function and public method of the traced modules is replaced by
a wrapper that records a span (name, start, end, parent span) and per-name
counts.  A function is patched under every name a genalign module binds it
to: ``pretrain`` and ``align`` import ``forward`` by name and ``harness``
imports ``embed_cohort``, ``project`` and ``train_align`` by name, so a patch
on the defining module alone would miss those calls.  ``uninstall`` puts
every original back.

Spans live in flat arrays while the benchmark runs and are written out once
at the end (``save_spans``).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "genalign"
TRACED_MODULES = (
    "ndiff", "aggregator", "pretrain", "optim", "align", "harness",
    "evalkit", "synthcohort", "cohort", "gbio", "karyogram",
)
# spans whose first argument's row count is recorded (cells per forward call)
ROW_COUNTED = ("aggregator.forward",)
WRAPPER_MARK = "__perfbench_span__"


class Tracer:
    def __init__(self):
        self._ndiff = importlib.import_module(f"{PACKAGE}.ndiff")
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.taped_calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.rows: dict[int, int] = defaultdict(int)
        self._row_ids: set[int] = set()
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _sid(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.taped_calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            if name in ROW_COUNTED:
                self._row_ids.add(sid)
        return sid

    def _call(self, sid: int, fn, args, kwargs):
        idx = len(self.span_start)
        self.span_name.append(sid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        # ndiff keeps the active tape in a module global; reading it is the
        # only way to tell taped from untaped calls without editing the package
        if self._ndiff._ACTIVE_TAPE is not None:
            self.taped_calls[sid] += 1
        if sid in self._row_ids:
            self.rows[sid] += int(args[0].shape[0])
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.span_start[idx] = start
            self.span_end[idx] = end
            self.calls[sid] += 1
            self.total_s[sid] += duration
            self.self_s[sid] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration

    def _wrap(self, fn, name: str):
        sid = self._sid(name)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(sid, fn, args, kwargs)

        setattr(traced, WRAPPER_MARK, name)
        return traced

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[object, object] = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, method, self._wrap(fn, f"{short}.{attr}.{method}"))
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------
    def top_level_s(self) -> float:
        """Summed duration of the root spans."""
        return sum(
            end - start
            for start, end, parent in zip(self.span_start, self.span_end, self.span_parent)
            if parent == -1
        )

    def table(self) -> dict[str, dict]:
        """Per-function calls, taped calls, inclusive and self seconds."""
        out = {}
        for sid, name in enumerate(self.names):
            if not self.calls[sid]:
                continue
            row = {
                "calls": float(self.calls[sid]),
                "taped_calls": float(self.taped_calls[sid]),
                "total_s": self.total_s[sid],
                "self_s": self.self_s[sid],
            }
            if sid in self._row_ids:
                row["rows"] = float(self.rows[sid])
            out[name] = row
        return out

    def save_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def installed_wrappers() -> list[str]:
    """Names still bound to a tracer wrapper anywhere in the package."""
    found = []
    for module in _package_modules():
        for attr, obj in vars(module).items():
            if hasattr(obj, WRAPPER_MARK):
                found.append(f"{module.__name__}.{attr}")
            elif inspect.isclass(obj):
                found += [f"{module.__name__}.{attr}.{m}" for m, fn in vars(obj).items()
                          if hasattr(fn, WRAPPER_MARK)]
    return found
