"""In-memory call spans around the package's public functions.

``Tracer.install`` swaps each listed function for a wrapper that records one
span per call: name, start, end, the span that was open when it started
(its parent), the benchmark op it belongs to, and whether it failed. The
swap also covers names re-bound into other package modules by
``from ... import``, and methods on the evaluator class. Spans stay in
compact arrays until ``write`` stores them; ``summary`` derives calls, self
time (duration minus the time covered by child spans) and failures.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

PACKAGE = "cmc_elliptic"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.keys: dict[str, list] = {}
        self.op_index = -1
        self._sid = array("q")
        self._parent = array("q")
        self._name = array("i")
        self._op = array("q")
        self._start = array("q")
        self._end = array("q")
        self._failed = array("b")
        self._stack: list[int] = []
        self._next = 0
        self._targets: list[tuple[object, str, object]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, key=None, fail_on_nonzero=False):
        """A wrapper of fn that records a span named name per call."""
        idx = len(self.names)
        self.names.append(name)
        keys = self.keys.setdefault(name, []) if key is not None else None
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if keys is not None:
                keys.append(key(args))
            failed = 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = 1 if fail_on_nonzero and out != 0 else 0
                return out
            finally:
                t1 = clock()
                stack.pop()
                self._sid.append(sid)
                self._parent.append(parent)
                self._name.append(idx)
                self._op.append(self.op_index)
                self._start.append(t0)
                self._end.append(t1)
                self._failed.append(failed)

        return traced

    def install(self, specs, distinct_keys, fail_on_nonzero) -> None:
        """Wrap every (module, attribute path, span name) in specs.

        The wrappers are built on the first call; later calls re-apply them,
        so spans of several traced stretches share one set of names.
        """
        if not self._targets:
            self._targets = list(self._bindings(specs, distinct_keys,
                                                fail_on_nonzero))
        for owner, attr, wrapper in self._targets:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def _bindings(self, specs, distinct_keys, fail_on_nonzero):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, path, name in specs:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, distinct_keys.get(name),
                                name in fail_on_nonzero)
            if parents:  # a method: patching the class reaches every caller
                yield owner, attr, wrapper
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        yield module, bound, wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, self time in ns, failed calls)."""
        covered = [0] * self._next
        for parent, t0, t1 in zip(self._parent, self._start, self._end):
            if parent >= 0:
                covered[parent] += t1 - t0
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        fails = [0] * len(self.names)
        for sid, idx, t0, t1, failed in zip(self._sid, self._name,
                                            self._start, self._end,
                                            self._failed):
            calls[idx] += 1
            self_ns[idx] += t1 - t0 - covered[sid]
            fails[idx] += failed
        return {name: (calls[i], self_ns[i], fails[i])
                for i, name in enumerate(self.names)}

    def write(self, path) -> int:
        """Store every span as gzipped CSV; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("span,parent,name,op,start_ns,end_ns,failed\n")
            for row in zip(self._sid, self._parent, self._name, self._op,
                           self._start, self._end, self._failed):
                sid, parent, idx, op, t0, t1, failed = row
                fh.write(f"{sid},{parent},{self.names[idx]},{op},{t0},{t1},"
                         f"{failed}\n")
        return len(self._sid)
