"""Span recorder for the traced run (``--trace 1``).

Tracing lives entirely on the benchmark side: while a traced call runs, the
public stage functions of twodist's modules are replaced by thin wrappers
that time each call in its own span, and ``numpy.linalg``'s decompositions
are replaced by counting wrappers. Every module attribute bound to a stage
function is patched, so calls between twodist's own modules are caught too;
everything is restored when the call returns. Untraced runs install nothing.

A span's self time is its duration minus the durations of its child spans.
The benchmark wraps each entry-point call in an ``entry`` span, whose self
time is the work no named stage covers.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

#: (module, function, span name). A function missing from a later version of
#: twodist is skipped; its time then shows up in its caller's self time.
STAGES = (
    ("graphs", "parse_graph6", "graphs.parse"),
    ("graphs", "from_mask", "graphs.parse"),
    ("graphs", "classify", "graphs.classify"),
    ("graphs", "complement", "graphs.complement"),
    ("graphs", "adjacency_matrix", "graphs.adjacency"),
    ("representations", "projected_spectrum", "representations.projected_spectrum"),
    ("representations", "endpoint_sphericity", "representations.endpoint_sphericity"),
    ("representations", "dim_spherical", "representations.dim_spherical"),
    ("representations", "j_spherical", "representations.j_spherical"),
    ("representations", "euclidean_representation", "representations.euclidean_representation"),
    ("edm", "spherical_info", "edm.spherical_info"),
    ("oracle", "verify_two_distance", "oracle.verify"),
    ("oracle", "discriminating_roots_batch", "oracle.roots"),
    ("oracle", "discriminating_roots", "oracle.roots"),
)
#: numpy.linalg calls counted as dense decompositions.
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "lstsq")


class Recorder:
    """Accumulates self time (ms) per span name and decomposition counts."""

    def __init__(self):
        self.self_ms = defaultdict(float)
        self.total_ms = defaultdict(float)
        self.decomps = Counter()
        self._stack = []  # child time (s) accumulated per open span

    @contextmanager
    def span(self, name: str):
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, t0)

    def _close(self, name: str, t0: float) -> None:
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        self.self_ms[name] += (dur - child) * 1e3
        self.total_ms[name] += dur * 1e3
        if self._stack:
            self._stack[-1] += dur

    @contextmanager
    def entry(self):
        """Trace one entry-point call: patch, then open the ``entry`` span."""
        with self.installed(), self.span("entry"):
            yield

    def take(self) -> tuple:
        """(self_ms, total_ms, decomps) since the last take; then reset."""
        out = (dict(self.self_ms), dict(self.total_ms), dict(self.decomps))
        self.self_ms.clear()
        self.total_ms.clear()
        self.decomps.clear()
        return out

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):  # span() inlined: wrappers run per stage call
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.decomps[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Patch the stage functions and numpy.linalg for the duration."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "twodist" or name.startswith("twodist."))]
        patches = []
        for mod_name, attr, span_name in STAGES:
            home = sys.modules.get(f"twodist.{mod_name}")
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapped = self._timed(span_name, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        patches.append((mod, name, value))
                        setattr(mod, name, wrapped)
        for attr in DECOMPOSITIONS:
            orig = getattr(np.linalg, attr)
            patches.append((np.linalg, attr, orig))
            setattr(np.linalg, attr, self._counted(attr, orig))
        try:
            yield self
        finally:
            for mod, name, value in reversed(patches):
                setattr(mod, name, value)
