"""Spans and call counters recorded from the benchmark's side of each layer boundary.

The traced run hands the workloads wrapped versions of the public functions
they call.  A wrapper records one span per call: its name (``<module>.<func>``)
and its duration.  A span opened inside another (``ensemble_finals`` inside
``mc_expectation``) is nested; only top-level spans count toward the time the
layers cover.  Spans are aggregated in memory per name and per round;
nothing is written until the run ends.

Counters wrap ``SdeSystem`` callbacks.  The wrappers take ``*args`` and
``**kwargs`` so they keep counting if a callback's signature changes.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict


class Tracer:
    """Per-round span and counter aggregates.

    ``spans[name]`` is a list of ``(duration_s, size)`` pairs for the current
    round, where ``size`` is whatever the wrapper's ``size`` callback made of
    the call's arguments (steps, for ``integrate``).  ``top_level_s`` sums
    the spans that were not nested in another span, so the part of a round
    not covered by any layer is the round time minus it.
    """

    def __init__(self):
        self.counts = defaultdict(int)
        self.spans = defaultdict(list)
        self.top_level_s = 0.0
        self._depth = 0

    def new_round(self) -> None:
        self.counts = defaultdict(int)
        self.spans = defaultdict(list)
        self.top_level_s = 0.0

    def wrap(self, name: str, fn, size=None):
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._depth -= 1
                if not self._depth:
                    self.top_level_s += dur
                self.spans[name].append((dur, size(*args, **kwargs) if size else 1))

        return traced

    def counted(self, name: str, fn):
        """``fn`` with a call counter named ``name``; ``None`` stays ``None``."""
        if fn is None:
            return None

        def tick(*args, **kwargs):
            # self.counts, not a captured dict: new_round() replaces it
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return tick

    def counted_system(self, sys):
        """The same SdeSystem with counting drift, diffusion and ito_correction."""
        return dataclasses.replace(
            sys,
            drift=self.counted("dynamics.drift", sys.drift),
            diffusion=self.counted("dynamics.diffusion", sys.diffusion),
            ito_correction=self.counted("dynamics.correction", sys.ito_correction),
        )

