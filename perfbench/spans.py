"""In-memory spans recorded around calls into the program's public API.

Each span has a name, start and end (``time.perf_counter`` seconds), the span
that caused it and the root span of its operation, which plays the role of a
request identifier. Counts taken at the same boundary go into ``attrs``.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its ``attrs`` dict so counts can be added.

        A span left by an exception is closed and marked with the exception
        type under ``attrs["error"]``; the exception propagates.
        """
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        rec = {
            "id": sid,
            "name": name,
            "parent": parent,
            "root": sid if parent is None else self.spans[parent]["root"],
            "start": time.perf_counter(),
            "end": None,
            "attrs": dict(attrs),
        }
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec["attrs"]
        except BaseException as exc:
            rec["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}


NULL = NullTracer()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list[dict]) -> float:
    """The span's duration minus the part of its interval that its direct
    ``children`` cover (overlapping children are counted once)."""
    lo, hi = span["start"], span["end"]
    covered = 0.0
    reach = lo
    for child in sorted(children, key=lambda s: s["start"]):
        start, end = max(child["start"], reach), min(child["end"], hi)
        if end > start:
            covered += end - start
            reach = end
    return duration(span) - covered


def with_self_times(spans: list[dict]) -> list[dict]:
    """Copies of ``spans``, each with its self time under ``"self"``."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    return [{**s, "self": self_time(s, children[s["id"]])} for s in spans]
