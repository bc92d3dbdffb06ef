"""In-memory span recording around the public calls into each module.

``Tracer.install`` replaces every public function of the package at every
name it is reachable through (``regretalloc.regret.validate_problem`` as
well as ``regretalloc.model.validate_problem``), so a call from one module
into another is recorded at the boundary.  Nothing under ``src/`` changes;
``uninstall`` puts the original functions back.  Time inside dataclass
constructors, private helpers and numpy counts as the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from common import MODULES

# One span: (id, parent id or 0, op id, name, start s, end s).
Span = tuple[int, int, int, str, float, float]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patch_list = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.op, name, start, end))

    def wrap(self, name: str, fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))

        return traced

    def _patches(self):
        """(namespace, attribute, original, wrapper) for every public
        function of the package at every name it is reachable through."""
        if self._patch_list is None:
            namespaces = [importlib.import_module("regretalloc")] + [
                importlib.import_module(f"regretalloc.{m}") for m in MODULES
            ]
            wrappers: dict[object, object] = {}
            self._patch_list = []
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    if not obj.__module__.startswith("regretalloc."):
                        continue
                    wrapper = wrappers.get(obj)
                    if wrapper is None:
                        module = obj.__module__.split(".", 1)[1]
                        wrapper = wrappers[obj] = self.wrap(f"{module}.{obj.__name__}", obj)
                    self._patch_list.append((ns, attr, obj, wrapper))
        return self._patch_list

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches():
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches():
            setattr(ns, attr, original)

    def dump(self, path: Path, label: str) -> None:
        path.write_text(json.dumps({"proc": label, "spans": self.spans}))


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per-module self time: a span's duration minus its children's."""
    covered: dict[int, float] = {}
    for _, parent, _, _, start, end in spans:
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    totals = {m: 0.0 for m in MODULES}
    for sid, _, _, name, start, end in spans:
        module = name.split(".", 1)[0]
        if module in totals:
            totals[module] += (end - start) - covered.get(sid, 0.0)
    return totals
