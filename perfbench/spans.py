"""Span recorder wrapped around the calls ``svdsep.cli`` makes into each module.

Spans are kept in memory as ``(run, id, parent, name, start, end)`` and
counters per run; nothing is written until the benchmark ends.  The
wrappers go on the names ``cli`` calls through (``cli.fio``, ``cli.signal``,
``cli.linalg``, ``cli.sliding_scan``, ``cli.threshold_map``), so other
callers of those modules are untouched; counting-only wrappers go on
``numpy.linalg.svd`` and ``numpy.linalg.qr``.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

# Per-layer time metric of each span; the root span's self time is cli.self_s.
LAYER_OF_SPAN = {
    "cli.main": "cli.self_s",
    "io.read_channels_csv": "io.read_s",
    "io.load_gray_image": "io.read_s",
    "io.write_channels_csv": "io.write_s",
    "io.write_grid_csv": "io.write_s",
    "io.write_pgm": "io.write_s",
    "io.render_grid_u8": "io.render_s",
    "signal.embed": "signal.embed_s",
    "signal.unembed": "signal.unembed_s",
    "signal.separate": "signal.separate_s",
    "signal.gsvd_separate": "signal.separate_s",
    "signal.find_cutoff": "signal.cutoff_s",
    "signal.find_two_cutoffs": "signal.cutoff_s",
    "signal.cutoff_from_gsvd": "signal.cutoff_s",
    "signal.egv_profile": "signal.cutoff_s",
    "linalg.svd": "linalg.svd_s",
    "linalg.gsvd": "linalg.gsvd_s",
    "image.sliding_scan": "image.scan_s",
    "image.threshold_map": "image.threshold_s",
}

# cli attribute -> (span prefix, wrapped function names)
_PROXIED = {
    "fio": ("io", ("read_channels_csv", "load_gray_image", "write_channels_csv",
                   "write_grid_csv", "write_pgm", "render_grid_u8")),
    "signal": ("signal", ("embed", "unembed", "separate", "gsvd_separate", "find_cutoff",
                          "find_two_cutoffs", "cutoff_from_gsvd", "egv_profile")),
    "linalg": ("linalg", ("svd", "gsvd")),
}
_DIRECT = {"sliding_scan": "image.sliding_scan", "threshold_map": "image.threshold_map"}
_COUNTED = {"svd": "lapack.svd_calls", "qr": "lapack.qr_calls"}


def _factor_bytes(result) -> int:
    return sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))


def _count(counters: Counter, name: str, args, result) -> None:
    """Exact work counters taken at the span boundaries."""
    if name in ("io.read_channels_csv", "io.load_gray_image"):
        counters["io.bytes_read"] += os.path.getsize(args[0])
    elif name.startswith("io.write_"):
        counters["io.bytes_written"] += os.path.getsize(args[0])
    elif name in ("linalg.svd", "linalg.gsvd"):
        counters["linalg.basis_mib"] += _factor_bytes(result) / 2.0 ** 20
    elif name == "image.sliding_scan":
        counters["image.windows"] += result.grid.size


class _Proxy:
    """Stands in for a module: wrapped functions first, everything else from the module."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counters of traced invocations, one ``run`` id per invocation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._run = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (self._run, sid, parent, name, start, end)
            _count(self.counters[self._run], name, args, result)
            return result

        return wrapper

    def _counting(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counters[self._run][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, run: int, cli, argv: list[str]) -> int:
        """One invocation of ``cli.main`` under a root span, with every wrapper installed."""
        self._run = run
        self.counters[run].update({name: 0 for name in _COUNTED.values()})
        with self._installed(cli):
            return self._wrap("cli.main", cli.main)(argv)

    @contextlib.contextmanager
    def _installed(self, cli):
        saved = {attr: getattr(cli, attr) for attr in (*_PROXIED, *_DIRECT)}
        saved_np = {fn: getattr(np.linalg, fn) for fn in _COUNTED}
        try:
            for attr, (prefix, names) in _PROXIED.items():
                module = saved[attr]
                setattr(cli, attr, _Proxy(module, {
                    n: self._wrap(f"{prefix}.{n}", getattr(module, n)) for n in names}))
            for attr, name in _DIRECT.items():
                setattr(cli, attr, self._wrap(name, saved[attr]))
            for fn, name in _COUNTED.items():
                setattr(np.linalg, fn, self._counting(name, saved_np[fn]))
            yield
        finally:
            for attr, value in saved.items():
                setattr(cli, attr, value)
            for fn, value in saved_np.items():
                setattr(np.linalg, fn, value)

    def layer_times(self, run: int) -> tuple[dict, float, list[str]]:
        """Self time per layer metric, the root span's duration, and accounting problems.

        A span's self time is its duration minus that of its direct
        children.  Each child must lie inside its parent, so the self
        times of all spans sum to the root's duration.
        """
        spans = [s for s in self.spans if s is not None and s[0] == run]
        by_id = {s[1]: s for s in spans}
        child_time: Counter = Counter()
        problems = []
        for _, sid, parent, name, start, end in spans:
            if parent is None:
                continue
            p = by_id[parent]
            if start < p[4] or end > p[5]:
                problems.append(f"span {name} leaves its parent {p[3]}")
            child_time[parent] += end - start
        times = dict.fromkeys(LAYER_OF_SPAN.values(), 0.0)
        for _, sid, _, name, start, end in spans:
            times[LAYER_OF_SPAN[name]] += (end - start) - child_time[sid]
        roots = [s for s in spans if s[2] is None]
        if len(roots) != 1:
            return times, float("nan"), problems + [f"{len(roots)} root spans in run {run}"]
        root = roots[0][5] - roots[0][4]
        if any(t < -1e-9 for t in times.values()):
            problems.append("negative self time")
        if abs(sum(times.values()) - root) > 1e-6 * max(root, 1.0):
            problems.append("self times do not sum to the root span")
        return times, root, problems

    def dump(self) -> list[dict]:
        keys = ("run", "id", "parent", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans if s is not None]
