"""In-memory spans recorded by the benchmark around its calls into riemvisc.

A span name is ``<layer>.<call>[.<tag>]``; its layer is the first dotted
part, one of the modules of ``src/riemvisc`` or ``bench`` for the
benchmark's own code (oracle checks, loop overhead).  Spans nest through a
stack, so each span knows its parent, and every span of one workload pass
carries that pass's run id.

Durations are always measured (two clock reads) because the end-to-end
metrics sum them by name.  The clock is ``perf_counter`` unless the tracer
is given another, such as ``speed.clock``, which stops while the speed
sampler runs.  Span records are only kept when the
tracer is enabled; they stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    index: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    enabled: bool = False
    run_id: str = ""
    spans: list[Span] = field(default_factory=list)
    totals: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    clock: Callable[[], float] = time.perf_counter
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        """Time the body; record a span when tracing is enabled."""
        index = None
        if self.enabled:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.run_id, index))
            self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self.totals[name] += end - start
            if index is not None:
                self._stack.pop()
                self.spans[index].start = start
                self.spans[index].end = end

    def total(self, prefix: str) -> float:
        """Summed duration of the spans whose name starts with ``prefix``."""
        return sum(v for k, v in self.totals.items() if k.startswith(prefix))


def self_times(spans: list[Span]) -> list[float]:
    """Per span, its duration minus the part covered by its child spans.

    Children of one parent never overlap (the benchmark is serial), so the
    covered part is the sum of the children's durations.  Spans may come
    from several runs; a parent is looked up within the span's own run.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.run_id, s.parent] += s.duration
    return [s.duration - covered[s.run_id, s.index] for s in spans]


def _summed(spans: list[Span], key) -> dict[str, float]:
    out = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[key(s)] += own
    return dict(out)


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per layer."""
    return _summed(spans, lambda s: s.layer)


def name_self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    return _summed(spans, lambda s: s.name)
