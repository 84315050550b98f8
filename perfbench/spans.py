"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps public entry points of the depbounds modules from the
outside: nothing under ``src/`` is changed.  Every module-level binding of
a wrapped function is replaced, because ``from .numkernel import ...``
copies names into ``bounds``, ``oracle`` and ``verify`` and those copies
are what the callers look up.

A span is ``(name, start_ns, end_ns, parent, thread, valid)``.  ``parent``
is the index of the enclosing span: the innermost open span on the same
thread, or, for the first span opened on a pool thread, the innermost open
span of the thread that installed the recorder (that thread is blocked in
``empirical_tail`` while the pool runs).  ``valid`` is True/False when the
call returned a ``TailBound`` and None otherwise.  Spans stay in memory
until the caller takes them.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
import threading
import time
from collections import defaultdict

# Prefix of the stderr line on which a traced child process reports its spans.
MARK = "perfbench-spans "

# Module whose public functions form each layer.  ``__all__`` decides which
# functions are wrapped, so a function made public later is traced without
# a benchmark change.
ALL_LAYERS = ("bounds", "oracle", "numkernel", "graphcomb")

# simulate model class -> CLI model name used in the metric names
SIM_MODELS = {
    "GnpIsolated": "gnp-isolated",
    "GnpTriangles": "gnp-triangles",
    "Gnp4Cliques": "gnp-4cliques",
    "GnmIsolated": "gnm-isolated",
    "GnmTriangles": "gnm-triangles",
    "MartingaleDiff": "mds",
    "UStat": "ustat",
    "OrientationParity": "orientation-parity",
    "DegreeParity": "degree-parity",
}


class Recorder:
    """Collects spans from wrapped calls, on any thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._home = threading.get_ident()

    def _stack(self, tid):
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def open(self, name):
        tid = threading.get_ident()
        stack = self._stack(tid)
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home)
            parent = home[-1] if home and tid != self._home else None
        rec = [name, time.perf_counter_ns(), 0, parent, tid, None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter_ns()
        self._stacks[rec[4]].pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            valid = getattr(result, "is_valid", None)
            if isinstance(valid, bool):
                rec[5] = valid
            return result

        return traced

    def take(self):
        """Return the recorded spans and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _targets():
    """Map each traced function object to its span name."""
    from depbounds import cli, simulate, verify

    targets = {}
    for layer in ALL_LAYERS:
        mod = sys.modules[f"depbounds.{layer}"]
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                targets[obj] = f"{layer}.{name}"
    targets[simulate.empirical_tail] = "simulate.empirical_tail"
    targets[simulate.exact_binomial_ci] = "simulate.exact_binomial_ci"
    targets[verify.run_suite] = "verify.run_suite"
    targets[cli.main] = "cli.main"
    return targets


class installed:
    """Context manager: wrap the traced entry points, restore them on exit."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        import depbounds.cli  # noqa: F401  (loads every depbounds module)
        from depbounds import graphcomb, simulate

        targets = _targets()
        wrappers = {fn: self.recorder.wrap(name, fn) for fn, name in targets.items()}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "depbounds" or n.startswith("depbounds.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        for cls_name, model in SIM_MODELS.items():
            cls = getattr(simulate, cls_name)
            self._set(cls, "batch",
                      self.recorder.wrap(f"simulate.batch.{model}", cls.batch))
        for attr in ("from_edge_list", "complete"):
            method = graphcomb.Graph.__dict__[attr].__func__
            self._set(graphcomb.Graph, attr, classmethod(
                self.recorder.wrap(f"graphcomb.Graph.{attr}", method)))
        return self.recorder

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


# ---------------------------------------------------------------------------
# self time


def union_ns(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time in ns: duration minus the union of its children.

    Children that overlap in time, such as chunks run by two pool threads,
    count once.
    """
    children = defaultdict(list)
    for span in spans:
        parent = span[3]
        if parent is not None:
            children[parent].append((span[1], span[2]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[1], span[2]
        kids = [(max(s, start), min(e, end)) for s, e in children.get(idx, ())]
        out.append(end - start - union_ns([k for k in kids if k[1] > k[0]]))
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def aggregate(spans):
    """Sums over one operation's spans, keyed by metric-style names.

    Per layer: ``<layer>.self_s`` and ``<layer>.calls``.  Per span name:
    ``span_s.<name>`` (inclusive time), ``self_s.<name>`` and
    ``span_calls.<name>``.
    ``bounds.valid`` / ``bounds.tailbounds`` count TailBound results.
    """
    acc = defaultdict(float)
    for span, self_ns in zip(spans, self_times(spans)):
        name = span[0]
        layer = layer_of(name)
        acc[f"{layer}.self_s"] += self_ns * 1e-9
        acc[f"{layer}.calls"] += 1
        acc[f"span_s.{name}"] += (span[2] - span[1]) * 1e-9
        acc[f"self_s.{name}"] += self_ns * 1e-9
        acc[f"span_calls.{name}"] += 1
        if span[5] is not None and layer == "bounds":
            acc["bounds.tailbounds"] += 1
            acc["bounds.valid"] += span[5]
    return acc


# ---------------------------------------------------------------------------
# python -X importtime

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(text):
    """Self import time in seconds, summed per top-level package.

    ``text`` is the stderr of ``python -X importtime``; the header line
    and any other output are skipped.
    """
    micros = defaultdict(int)
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            micros[m.group(4).split(".", 1)[0]] += int(m.group(1))
    return {pkg: us / 1e6 for pkg, us in micros.items()}
