"""The benchmark's own spans, kept in memory and reduced at the end.

Spans are recorded from outside the program: around the public calls into
each layer (``advance``, ``Bridge.execute``, every analysis adaptor's
``execute`` through :class:`SpannedAnalysis`, and the data adaptor's
``get_mesh``/``get_array`` through :class:`SpannedDataAdaptor`).  Nothing
under ``src/`` is changed, and no span name is classified by pattern: the
layer of a span is the name the benchmark gave it.

A span's self time is its duration minus the time its direct children
cover; spans are strictly nested (one stack per rank), so the children's
durations are exactly the covered part.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.core.adaptors import AnalysisAdaptor, DataAdaptor


class Spans:
    """One rank's span stack and completed spans.

    ``enabled=False`` makes every call a no-op, so the untraced run can use
    the same code path without recording anything.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: Completed spans: (name, t0, t1, self seconds).
        self.done: list[tuple[str, float, float, float]] = []
        self._stack: list[list] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        frame = [name, time.perf_counter(), 0.0]  # name, t0, child seconds
        self._stack.append(frame)
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            duration = t1 - frame[1]
            if self._stack:
                self._stack[-1][2] += duration
            self.done.append((name, frame[1], t1, duration - frame[2]))

    def self_totals(self) -> dict[str, float]:
        """Self seconds per span name, summed over the run."""
        out: dict[str, float] = {}
        for name, _, _, own in self.done:
            out[name] = out.get(name, 0.0) + own
        return out

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.done if n == name]


class SpannedDataAdaptor(DataAdaptor):
    """Delegates to a simulation's data adaptor, spanning each mapping call
    as ``core.map`` and counting zero-copy versus copied bytes."""

    def __init__(self, inner: DataAdaptor, spans: Spans) -> None:
        super().__init__(inner.comm)
        self.inner = inner
        self.spans = spans
        self.bytes_zero_copy = 0
        self.bytes_copied = 0

    def set_data_time(self, time: float, step: int) -> None:
        super().set_data_time(time, step)
        self.inner.set_data_time(time, step)

    def get_mesh(self, structure_only: bool = False):
        with self.spans.span("core.map"):
            return self.inner.get_mesh(structure_only)

    def get_array(self, association, name):
        with self.spans.span("core.map"):
            arr = self.inner.get_array(association, name)
        if arr.is_zero_copy:
            self.bytes_zero_copy += arr.nbytes
        else:
            self.bytes_copied += arr.nbytes_copied
        return arr

    def get_number_of_arrays(self, association) -> int:
        return self.inner.get_number_of_arrays(association)

    def get_array_name(self, association, index: int) -> str:
        return self.inner.get_array_name(association, index)

    def release_data(self) -> None:
        self.inner.release_data()


class SpannedAnalysis(AnalysisAdaptor):
    """Delegates to an analysis adaptor, spanning ``execute`` as ``label``."""

    def __init__(self, inner: AnalysisAdaptor, label: str, spans: Spans) -> None:
        super().__init__()
        self.inner = inner
        self.label = label
        self.spans = spans

    @property
    def name(self) -> str:
        return self.inner.name

    def set_instrumentation(self, timers, memory) -> None:
        super().set_instrumentation(timers, memory)
        self.inner.set_instrumentation(timers, memory)

    def initialize(self, comm) -> None:
        self.inner.initialize(comm)

    def execute(self, data) -> bool:
        with self.spans.span(self.label):
            return self.inner.execute(data)

    def finalize(self):
        return self.inner.finalize()
