"""Span tracing of btckit's public functions, installed from outside the package.

The tracer rebinds each listed function in every ``btckit.*`` namespace that
holds it (the modules use ``from ... import``, so one function can be bound
in several places) and restores the originals afterwards. Each call records
a span (id, name, start, end, parent id, run id) in memory. A span opened on
a thread with no open span of its own (a CLI pool worker) takes the
outermost open span as its parent, so the CLI's self time excludes the work
its pool does.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# (module, qualified name) of every traced function; a dotted name is a method
LAYERS = (
    ("cli", "main"),
    ("data", "load_dense_dataset"),
    ("data", "build_dictionary"),
    ("data", "ScalingParams.apply"),
    ("data", "load_hsi_cube"),
    ("data", "load_label_map"),
    ("data", "split_by_mask"),
    ("data", "save_label_map"),
    ("data", "save_label_map_pgm"),
    ("linalg", "top_m_select"),
    ("linalg", "solve_spd_regularized"),
    ("linalg", "pca_first_component"),
    ("btc", "btc_classify"),
    ("btc", "btc_estimate_threshold"),
    ("kbtc", "kbtc_classify"),
    ("kbtc", "kernel_matrix"),
    ("kbtc", "kernel_cache"),
    ("kbtc", "kbtc_gamma_profile"),
    ("kbtc", "kbtc_estimate_params"),
    ("ensemble", "ensemble_classify"),
    ("ensemble", "make_sparse_projection"),
    ("spatial", "spatial_spectral_classify"),
    ("spatial", "build_residual_cube"),
    ("spatial", "mask_by_classmap"),
    ("spatial", "wls_smooth"),
    ("spatial", "decide_from_cube"),
    ("metrics", "evaluate"),
)

LAYER_NAMES = tuple(f"{module}.{qual}" for module, qual in LAYERS)


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    run: object


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run: object = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if self._root == sid:
                    self._root = None
                self.spans.append(Span(sid, name, start, end, parent, self.run))

        return traced

    def install(self) -> None:
        """Rebind every listed function wherever a ``btckit`` namespace holds it.

        A listed function missing from the package is skipped and reports
        zero calls.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, qual in LAYERS:
            owner = importlib.import_module(f"btckit.{module_name}")
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                continue
            wrapper = self._wrap(f"{module_name}.{qual}", fn)
            wrappers[id(fn)] = wrapper
            if path:  # a method: rebind on its class
                self._patch(owner, attr, fn, wrapper)
        for module in btckit_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, value, wrappers[id(value)])

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def btckit_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "btckit" or name.startswith("btckit.")]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by the union of its children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for lo, hi in sorted(children.get(span.sid, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.sid] = (span.end - span.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """(calls, summed self time) for every name in :data:`LAYER_NAMES`."""
    own = self_times(spans)
    totals = {name: [0, 0.0] for name in LAYER_NAMES}
    for span in spans:
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += own[span.sid]
    return {name: (calls, s) for name, (calls, s) in totals.items()}
