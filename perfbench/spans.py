"""In-memory spans around the benchmark's calls into hilldraw.

A span records its name, start, end, parent span and op id, plus the work
counts the benchmark attaches to it.  Spans stay in memory until the run
ends; ``dump`` writes them out.  The untraced recorder hands out one shared
no-op span, so an untraced op pays only a method call per layer.

Span times and op times are read from ``clock``:
the CPU time of this process.  Ops run on one thread with native thread
pools pinned to 1 and do no I/O, so an op's CPU time is its latency on an
idle host, without the time a shared host's hypervisor takes away.
"""

from __future__ import annotations

import json
import statistics
from time import process_time as clock


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "counts",
                 "_tracer")

    def __init__(self, tracer, sid, name, parent, op, counts):
        self._tracer = tracer
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.counts = counts
        self.start = self.end = 0.0

    def add(self, **counts) -> None:
        """Attach counts known only after the call, such as output sizes."""
        self.counts.update(counts)

    def __enter__(self):
        self._tracer._stack.append(self.id)
        self.start = clock()
        return self

    def __exit__(self, *exc):
        self.end = clock()
        self._tracer._stack.pop()
        return False


class _NullSpan:
    __slots__ = ()

    def add(self, **counts) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Recorder for untraced runs: spans cost nothing and keep nothing."""

    enabled = False
    op = None

    def span(self, name, **counts):
        return _NULL_SPAN


class Tracer:
    """Recorder for traced runs; set ``op`` before each op's spans."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = None

    def span(self, name, **counts) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(self, len(self.spans), name, parent, self.op, counts)
        self.spans.append(s)
        return s

    def dump(self, path) -> None:
        rows = [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "counts": s.counts}
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
            fh.write("\n")


def layer_totals(spans, root: str) -> tuple[dict, float, float]:
    """Per-layer calls, self time and summed counts over the given spans.

    Self time is a span's duration minus the time its child spans cover.
    Returns (layers, root time, root self time): root spans are the ops,
    and their self time is the op time that no layer span covers.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = (child_time.get(s.parent, 0.0)
                                    + s.end - s.start)
    layers: dict[str, dict] = {}
    root_time = root_self = 0.0
    for s in spans:
        dur = s.end - s.start
        self_time = dur - child_time.get(s.id, 0.0)
        if s.name == root:
            root_time += dur
            root_self += self_time
            continue
        rec = layers.setdefault(s.name, {"calls": 0, "self_s": 0.0,
                                         "counts": {}})
        rec["calls"] += 1
        rec["self_s"] += self_time
        for key, val in s.counts.items():
            rec["counts"][key] = rec["counts"].get(key, 0) + val
    return layers, root_time, root_self


def median_layers(passes: list[dict]) -> tuple[dict, list[str]]:
    """Merge per-pass layer totals over identical inputs.

    Calls and counts must agree across passes; the layers where they do
    not are returned as the second item.  Self time is the median over
    passes.
    """
    out, differing = {}, []
    for name in sorted(set().union(*passes)):
        recs = [p.get(name, {"calls": 0, "self_s": 0.0, "counts": {}})
                for p in passes]
        first = recs[0]
        if any(r["calls"] != first["calls"] or r["counts"] != first["counts"]
               for r in recs[1:]):
            differing.append(name)
        out[name] = {"calls": first["calls"],
                     "self_s": statistics.median(r["self_s"] for r in recs),
                     "counts": dict(first["counts"])}
    return out, differing
