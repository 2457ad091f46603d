"""Outside-in tracing of uniprice: spans and counts recorded around calls
into each module's public functions, with no change to the package.

``Tracer.install`` replaces the names ``uniprice.harness`` imported, plus
``uniprice.learner.ensure_passes`` and ``backward_pass``, with wrappers;
``Tracer.remove`` puts the originals back.  Every span keeps its name,
start, end, parent span and replication id in compact arrays held in
memory until ``save`` writes them out.  ``utility_sum`` and
``backward_pass`` are counted, not timed: the first is called up to ~88
times per round, and a span around each call would inflate the round.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

# Names harness imported and calls, each timed as a span.
HARNESS_SPANS = (
    "next_bids",
    "sample_path",
    "apply_tie_offset",
    "clear_auction",
    "marginals",
    "firing_set",
    "make_feedback",
    "bandit_signal",
    "allwinner_signal",
    "update_weights",
    "best_fixed_total",
    "build_graph",
    "init_state",
    "default_parameters",
)


def layer_name(fn: Callable) -> str:
    """``adversaries.next_bids`` for ``uniprice.adversaries.next_bids``."""
    return f"{fn.__module__.removeprefix('uniprice.')}.{fn.__name__}"


class Times(NamedTuple):
    own: dict[str, float]
    total: dict[str, float]
    calls: dict[str, int]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rep = array("h")
        self.counts: Counter[str] = Counter()
        self.current_rep = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, Callable]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        name_ids, start, end, parent, rep = (
            self.name_id, self.start, self.end, self.parent, self.rep
        )
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            name_ids.append(nid)
            parent.append(stack[-1])
            rep.append(tracer.current_rep)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr: str, wrapper: Callable) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        from uniprice import harness, learner

        counts = self.counts
        for attr in HARNESS_SPANS:
            fn = getattr(harness, attr)
            self._patch(harness, attr, self.span(layer_name(fn), fn))

        firing = harness.firing_set

        def firing_set(*args, **kwargs):
            out = firing(*args, **kwargs)
            counts["pseudo_space.firing_set.nodes"] += len(out)
            return out

        update = harness.update_weights

        def update_weights(state, signal, eta):
            counts["learner.signal.entries"] += len(signal)
            return update(state, signal, eta)

        build = harness.build_graph

        def build_graph(k, inv_epsilon):
            # harness builds the graph once per replication, before any
            # round; replications run in index order in this process
            self.current_rep += 1
            return build(k, inv_epsilon)

        harness.firing_set = firing_set
        harness.update_weights = update_weights
        harness.build_graph = build_graph
        self._patch(
            harness, "utility_sum", self.counted("auction_core.utility_sum", harness.utility_sum)
        )
        self._patch(
            learner,
            "ensure_passes",
            self.span(layer_name(learner.ensure_passes), learner.ensure_passes),
        )
        self._patch(
            learner,
            "backward_pass",
            self.counted("learner.backward_pass", learner.backward_pass),
        )

    def remove(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def times(self, lo: int, hi: int) -> "Times":
        """Per-name self time, total time and call count of spans
        ``lo``..``hi - 1``.  Self time is a span's duration minus that of
        its direct children."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float)[:n] - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        ids = np.frombuffer(self.name_id, dtype=np.int16)[lo:hi]
        k = len(self.names)
        own = np.bincount(ids, weights=(dur - child)[lo:hi], minlength=k)
        total = np.bincount(ids, weights=dur[lo:hi], minlength=k)
        calls = np.bincount(ids, minlength=k)
        return Times(
            own=dict(zip(self.names, own.tolist())),
            total=dict(zip(self.names, total.tolist())),
            calls=dict(zip(self.names, calls.tolist())),
        )

    def gap(self, lo: int, hi: int, first: str, then: str) -> float:
        """Summed time from the end of each ``first`` span to the start of
        the ``then`` span after it, over spans ``lo``..``hi - 1``; both are
        called once per round."""
        ids = np.frombuffer(self.name_id, dtype=np.int16)[lo:hi]
        ends = np.frombuffer(self.end, dtype=float)[lo:hi][ids == self.names.index(first)]
        starts = np.frombuffer(self.start, dtype=float)[lo:hi][ids == self.names.index(then)]
        if len(ends) != len(starts):
            raise ValueError(f"{len(ends)} {first} spans but {len(starts)} {then} spans")
        return float((starts - ends).sum())

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int16),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            rep=np.frombuffer(self.rep, dtype=np.int16),
        )
