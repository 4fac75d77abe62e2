"""In-memory spans around ballotlab's layer functions, from outside the package.

``Tracer.install`` replaces every module-level binding of a function
inside the ``ballotlab`` package (``from .core import classify_ballot``
copies the name into ``ingest``, and ``cli`` copies most layers), so a
call is traced whichever module it goes through.  ``uninstall`` puts
the originals back.  Spans are ``(name, start_ns, end_ns, parent,
op)`` tuples kept in a list until ``write_jsonl``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def covered(start: int, end: int, intervals) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    reach = start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans) -> list[int]:
    """Per span: its duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered(s[1], s[2], children.get(i, ())) for i, s in enumerate(spans)]


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording a span per call; ``count(counts, args, result)`` adds counters."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, fn, name: str, count=None) -> None:
        """Wrap every binding of ``fn`` in a loaded ``ballotlab`` module."""
        traced = self.wrap(fn, name, count)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "ballotlab" or mod_name.startswith("ballotlab."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, traced)

    def install_attr(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap one attribute, e.g. a method on a class."""
        self._set(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def install_module_function(self, module, dep_name: str, fn_name: str, name: str) -> None:
        """Wrap ``module.<dep_name>.<fn_name>`` as seen from ``module`` only."""
        dep = getattr(module, dep_name)
        proxy = _ModuleProxy(dep, **{fn_name: self.wrap(getattr(dep, fn_name), name)})
        self._set(module, dep_name, proxy)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def self_ms_by_name(spans) -> tuple[dict[str, float], Counter]:
    """Summed self time (ms) and call count per span name."""
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own / 1e6
        calls[span[0]] += 1
    return dict(totals), calls
