"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` wraps each traced function where it is looked up: a
module that imported a name with ``from .x import name`` holds its own
reference, so ``aqr`` is patched in ``jacobi``, ``wedderburn`` and ``cli``
alike.  A span records its name, start, end, parent and a few counts taken
from the call's result.  Spans stay in memory and are written out when the
run ends.  Nothing is wrapped in an untraced run, so the timed runs pay
nothing for tracing.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of it its children cover."""
    return span.duration - covered(
        (max(c.start, span.start), min(c.end, span.end)) for c in children)


def _report_counts(rep, *args, **kwargs) -> dict:
    """Counters of a DecompReport, plus the largest entry support."""
    factors = [getattr(rep, k) for k in ("q", "r", "u", "d", "v")]
    return {"rotations": rep.rotations, "sweeps": rep.sweeps,
            "qrd_calls": rep.qrd_calls, "trimmed": rep.trimmed,
            "block_rotations": list(rep.block_rotations),
            "max_support": max(e.support for X in factors if X is not None
                               for row in X.entries for e in row)}


def _bytes_written(result, path, *args, **kwargs) -> dict:
    return {"bytes": os.path.getsize(path)}


class Tracer:
    """Records spans while ``active``; ``install`` patches, ``uninstall``
    restores every patched attribute."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[Span] = []
        self._patched: list[tuple] = []
        self._next_id = 0

    # -- recording ---------------------------------------------------------
    def open(self, name: str, **attrs) -> Span:
        span = Span(self._next_id, name, time.perf_counter(),
                    parent=self._stack[-1].id if self._stack else None,
                    attrs=dict(attrs))
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span.attrs.update(counts(result, *args, **kwargs))
            return result
        return traced

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, counts=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, counts))

    def install(self):
        from algdecomp import cli, core, jacobi, matio, wedderburn

        engine = {"aqr": _report_counts, "asvd": _report_counts,
                  "wqr": _report_counts, "wsvd": _report_counts,
                  "lift": None, "unlift": None}
        for module in (jacobi, wedderburn, cli):
            for attr, counts in engine.items():
                if hasattr(module, attr):
                    self._patch(module, attr, attr, counts)
        for module in (matio, cli):
            self._patch(module, "read_matrix", "read_matrix")
            self._patch(module, "write_matrix", "write_matrix", _bytes_written)
        self._patch(cli, "main", "cli.main")
        self._patch(core.AlgMatrix, "__matmul__", "matmul")
        self._patch(wedderburn.Representation, "__init__", "rep_build")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str, **meta):
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, **s.attrs}) + "\n")


# -- per-layer metrics --------------------------------------------------------

ROTATION_SETS = ("rot_qr_s", "rot_svd_s")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one round's spans.

    The workload opens one span per operation, named after the metric of
    its set (``rot_qr_s``, ``rep_svd_s``, ...); every traced call hangs
    below one of them.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def parent(s):
        return by_id.get(s.parent) if s.parent is not None else None

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(ss):
        return sum(s.duration for s in ss)

    def attr_sum(ss, key):
        return sum(s.attrs.get(key, 0) for s in ss)

    # rotation-engine calls the workload made itself (not via asvd or blocks)
    direct = [s for s in named("aqr", "asvd")
              if parent(s) is not None and parent(s).name in ROTATION_SETS]
    direct_svd = [s for s in direct if s.name == "asvd"]
    svd_inner = [c for s in direct_svd for c in children.get(s.id, [])
                 if c.name == "aqr"]
    all_aqr = named("aqr")
    aqr_rotations = attr_sum(all_aqr, "rotations")
    blocks = [s for s in named("aqr", "asvd")
              if parent(s) is not None and parent(s).name in ("wqr", "wsvd")]
    cli_spans = named("cli.main")
    return {
        "jacobi.rotations": (attr_sum(direct, "rotations"), "count"),
        "jacobi.qr_calls": (attr_sum(direct_svd, "qrd_calls"), "count"),
        "jacobi.sweeps": (attr_sum(direct, "sweeps"), "count"),
        "jacobi.us_per_rotation": (
            1e6 * total(all_aqr) / aqr_rotations if aqr_rotations else 0.0,
            "us"),
        "jacobi.aqr_s": (total(svd_inner), "s"),
        "jacobi.asvd_self_s": (total(direct_svd) - total(svd_inner), "s"),
        "jacobi.trimmed": (attr_sum(direct, "trimmed"), "count"),
        "jacobi.max_support": (
            max((s.attrs["max_support"] for s in direct), default=0), "terms"),
        "core.matmul_s": (total(named("matmul")), "s"),
        "wedderburn.rep_build_s": (total(named("rep_build")), "s"),
        "wedderburn.lift_s": (total(named("lift")), "s"),
        "wedderburn.unlift_s": (total(named("unlift")), "s"),
        "wedderburn.block_s": (total(blocks), "s"),
        "wedderburn.block_rotations": (
            attr_sum(named("wqr", "wsvd"), "rotations"), "count"),
        "matio.read_s": (total(named("read_matrix")), "s"),
        "matio.write_s": (total(named("write_matrix")), "s"),
        "matio.bytes_written": (attr_sum(named("write_matrix"), "bytes"), "B"),
        "cli.self_s": (sum(self_time(s, children.get(s.id, []))
                           for s in cli_spans), "s"),
    }
