"""In-memory span tracer for the discernlab layers.

A layer is a metric name such as ``discern.eigenproperty`` plus the
functions that implement it, each given as ``module:qualname`` inside the
``discernlab`` package.  ``install`` wraps every binding of a target that a
caller can resolve: a module-level function is replaced in every discernlab
module that imported it (``spin.embed_at_slot`` as well as
``multiparticle.embed_at_slot``), a method on its class.  ``restore`` puts
every original back.  A target that no longer exists is recorded in
``absent`` instead of raising, so the benchmark survives renames.

Each call becomes a span ``(name, start, end, parent, cell)`` kept in
memory until the next pass; ``calls`` and ``self_s`` are accumulated as
spans close and kept for every pass in ``passes``.  Self time
is the span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "discernlab"


class Tracer:
    def __init__(self, layers: dict[str, list[str]], distinct=None):
        """layers: metric name -> targets; distinct: metric name -> key(args).

        For a layer in ``distinct`` the tracer also collects the set of
        ``key(args)`` seen in the current cell (see ``take_distinct``).
        """
        self.layers = layers
        self.distinct_keys = distinct or {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.cell = -1
        self.passes: list[tuple[dict, dict]] = []  # (calls, self_s) per pass
        self.reset()

    def reset(self):
        self.spans: list = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._distinct: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []

    # -- installing and removing the wrappers -------------------------------

    def install(self):
        self.absent = []
        for name, targets in self.layers.items():
            found = False
            for target in targets:
                owners = self._bindings(target)
                if owners is None:
                    continue
                found = True
                original = getattr(owners[0][0], owners[0][1])
                wrapper = self._wrap(name, original)
                for owner, attr in owners:
                    self._patches.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            if not found:
                self.absent.append(name)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def traced_pass(self):
        """Trace what runs inside; keep its spans and its totals."""
        self.reset()
        self.install()
        try:
            yield
        finally:
            self.restore()
        self.passes.append((dict(self.calls), dict(self.self_s)))

    @staticmethod
    def _bindings(target: str):
        """[(owner, attribute)] to patch for target, or None when it is gone."""
        module_name, qualname = target.split(":")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return None
        *path, attr = qualname.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        if path:
            # a method: patch it on the class that defines it
            return [(owner, attr)] if attr in vars(owner) else None
        fn = getattr(module, attr, None)
        if not callable(fn):
            return None
        return [(mod, key)
                for mod_name, mod in sorted(sys.modules.items())
                if mod is not None and (mod_name == PACKAGE
                                        or mod_name.startswith(PACKAGE + "."))
                for key, value in list(vars(mod).items()) if value is fn]

    def _wrap(self, name: str, fn):
        key = self.distinct_keys.get(name)
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                try:
                    self._distinct[name].add(key(args))
                except (IndexError, AttributeError, TypeError):
                    pass  # a changed signature: the count reads low, not fatal
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = self._stack
        parent = stack[-1][1] if stack else -1
        frame = [name, len(self.spans), parent, 0.0, 0.0]
        self.spans.append(None)
        stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _leave(self, frame: list):
        end = perf_counter()
        name, index, parent, start, child_s = frame
        self._stack.pop()
        duration = end - start
        self.spans[index] = (name, start, end, parent, self.cell)
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][4] += duration

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one cell."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._leave(frame)

    def take_distinct(self, name: str) -> int:
        """Distinct keys seen for a layer since the last call; then clear."""
        return len(self._distinct.pop(name, ()))
