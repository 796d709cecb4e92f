"""Span recorder for the benchmark's traced run.

Tracing lives in the benchmark, not in ``povmcomp``: ``instrumented`` wraps
the public functions of each layer for the duration of a ``with`` block and
restores the originals afterwards.  A function is replaced wherever a
``povmcomp`` module holds it, because modules import by name (``compose``
holds its own reference to ``build_compressed_povm``).

Two kinds of probe are used:

- a *span* is recorded individually with its parent, start and end, for
  calls that happen tens of times per pass (solves, entropies, protocol
  stages);
- a *timer* only accumulates a call count and the time of its outermost
  calls, for functions that run thousands of times per pass (the SDP
  projections, hash fibers, decoder builds, ``linalg``), where a record
  per call would cost more than the call.

A span's self time is its duration minus the time its child spans cover;
timers are not spans and are not subtracted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(c.seconds for c in self.children)


@dataclass
class Timer:
    calls: int = 0
    seconds: float = 0.0
    items: int = 0  # summed size of the results, where one is counted
    depth: int = 0


class Recorder:
    """In-memory spans and timers; ``op`` labels the operation spans belong to."""

    def __init__(self):
        self.spans: list[Span] = []
        self.timers: dict[str, Timer] = {}
        self.stack: list[Span] = []
        self.op = ""
        # probe targets or result fields that no longer exist; their metrics read 0
        self.missing: set[str] = set()

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        parent_id = parent.id if parent else None
        span = Span(len(self.spans), name, parent_id, self.op, time.perf_counter())
        self.spans.append(span)
        if parent is not None:
            parent.children.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def timer(self, name: str) -> Timer:
        return self.timers.setdefault(name, Timer())

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_payload(self) -> dict:
        return {
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "op": s.op,
                    "start": s.start,
                    "end": s.end,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
            "timers": {
                k: {"calls": t.calls, "seconds": t.seconds, "items": t.items}
                for k, t in self.timers.items()
            },
        }


def _read_result(rec: Recorder, name: str, hook, *args) -> None:
    """Run a result hook; a result without the fields it reads is noted, not fatal."""
    try:
        hook(*args)
    except (AttributeError, TypeError):
        rec.missing.add(f"{name} result fields")


def _span_probe(rec: Recorder, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def probe(*args, **kwargs):
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if on_result is not None:
            _read_result(rec, name, on_result, span, args, out)
        return out

    return probe


def _timer_probe(rec: Recorder, name: str, fn, on_result=None):
    timer = rec.timer(name)

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        timer.calls += 1
        if timer.depth:
            out = fn(*args, **kwargs)
        else:
            timer.depth = 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                timer.seconds += time.perf_counter() - t0
                timer.depth = 0
        if on_result is not None:
            _read_result(rec, name, on_result, timer, out)
        return out

    return probe


# -- what the traced run records, per layer --------------------------------


def _solve_result(span, args, res):
    span.attrs["status"] = res.status
    span.attrs["iterations"] = res.iterations


def _session_built(span, args, _):
    span.attrs["var_reals"] = args[0].n_vars


def _family_built(span, args, fam):
    span.attrs["attempts"] = fam.attempt + 1
    span.attrs["nice_share"] = fam.fraction_nice


def _good_set(span, args, cert):
    span.attrs["offered"] = len(args[0])
    span.attrs["good"] = len(cert.good)


def _fiber(timer, out):
    timer.items += len(out)


# (module, attribute path, kind, metric name, result hook) of every probe.
# A class attribute is replaced on the class; a module function is replaced
# wherever a povmcomp module holds it.
PROBES = (
    ("povmcomp.sdp", "Session.__init__", "span", "sdp.session", _session_built),
    ("povmcomp.sdp", "Session.solve", "span", "sdp.solve", _solve_result),
    ("povmcomp.sdp", "Session.project_cone", "timer", "sdp.project_cone", None),
    ("povmcomp.sdp", "Session.project_affine", "timer", "sdp.project_affine", None),
    ("povmcomp.entropies", "d_max_smooth", "span", "entropies.d_max_smooth", None),
    ("povmcomp.entropies", "d_hyp", "span", "entropies.np_test", None),
    ("povmcomp.entropies", "i_hyp_cq", "span", "entropies.np_test", None),
    ("povmcomp.entropies", "i_hyp_weighted_cq", "span", "entropies.np_test", None),
    ("povmcomp.entropies", "h_max_smooth", "span", "entropies.h_max", None),
    ("povmcomp.entropies", "smooth_max_entropy_atoms", "span", "entropies.h_max", None),
    ("povmcomp.entropies", "von_neumann_suite", "span", "entropies.von_neumann", None),
    ("povmcomp.protocols.prep", "prepare", "span", "prep.prepare", None),
    ("povmcomp.protocols.prep", "thresholds", "span", "prep.thresholds", None),
    ("povmcomp.protocols.compress", "build_compressed_povm", "span", "compress.build",
     _family_built),
    ("povmcomp.covering", "extract_good_set_transformed", "span", "covering.good_set", _good_set),
    ("povmcomp.protocols.hashing", "HashScheme.preimages", "timer", "hashing.preimages", _fiber),
    ("povmcomp.protocols.hashing", "HashScheme.apply_many", "timer", "hashing.apply_many", None),
    ("povmcomp.protocols.cdcqsi", "SequentialDecoder.build", "timer", "cdcqsi.decoder_build", None),
    ("povmcomp.protocols.compose", "centralised_protocol", "span", "compose.centralised", None),
    ("povmcomp.splitting", "split_control_state", "span", "splitting.split_control", None),
    ("povmcomp.protocols.regions", "one_shot_region", "span", "regions.one_shot", None),
    ("povmcomp.protocols.regions", "iid_region", "span", "regions.iid", None),
)


def _probe_table():
    """PROBES plus every public ``linalg`` function, one shared timer."""
    linalg = importlib.import_module("povmcomp.linalg")
    table = list(PROBES)
    for attr, obj in vars(linalg).items():
        public = not attr.startswith("_") and not isinstance(obj, type)
        if public and callable(obj) and obj.__module__ == linalg.__name__:
            table.append((linalg.__name__, attr, "timer", "linalg", None))
    return table


def _resolve(module: str, path: str):
    """(owner, attribute) named by ``module`` and ``path``, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


def _holders(fn):
    """Every (povmcomp module, attribute) pair that refers to ``fn``."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "povmcomp" or name.startswith("povmcomp.")):
            continue
        for attr, val in vars(mod).items():
            if val is fn:
                out.append((mod, attr))
    return out


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Install the probes for the ``with`` block; originals are restored after."""
    saved = []
    try:
        for module, path, kind, name, on_result in _probe_table():
            target = _resolve(module, path)
            if target is None:
                rec.missing.add(f"{module}.{path}")
                continue
            owner, attr = target
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                probe = _make_probe(rec, kind, name, fn, on_result)
                saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    probe = staticmethod(probe)
                setattr(owner, attr, probe)
            else:
                fn = getattr(owner, attr)
                probe = _make_probe(rec, kind, name, fn, on_result)
                for mod, mod_attr in _holders(fn):
                    saved.append((mod, mod_attr, fn))
                    setattr(mod, mod_attr, probe)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _make_probe(rec: Recorder, kind: str, name: str, fn, on_result):
    if kind == "span":
        return _span_probe(rec, name, fn, on_result)
    return _timer_probe(rec, name, fn, on_result)


def layer_metrics(rec: Recorder, wall_s: float, cpu_s: float) -> dict[str, float]:
    """Per-layer figures of one traced phase, keyed by metric name."""
    solves = rec.named("sdp.solve")
    sessions = rec.named("sdp.session")
    status = [s.attrs.get("status") for s in solves]
    dmax = rec.named("entropies.d_max_smooth")
    dmax_solves = sum(
        1 for s in solves if _has_ancestor(rec, s, "entropies.d_max_smooth")
    )
    th = rec.named("prep.thresholds")
    good = rec.named("covering.good_set")
    builds = rec.named("compress.build")
    regions = rec.named("regions.one_shot")
    splits = rec.named("splitting.split_control")
    timers = rec.timers
    pre = timers.get("hashing.preimages")
    max_iter_s = sum(s.seconds for s in solves if s.attrs.get("status") == "maxIterations")
    return {
        "sdp.solves": len(solves),
        "sdp.iterations": sum(s.attrs.get("iterations", 0) for s in solves),
        "sdp.verdict.feasible": status.count("feasible"),
        "sdp.verdict.infeasible": status.count("infeasible"),
        "sdp.verdict.max_iter": status.count("maxIterations"),
        "sdp.max_iter.s": max_iter_s,
        "sdp.max_iter_share": max_iter_s / wall_s if wall_s > 0 else 0.0,
        "sdp.solve.s": _total(solves),
        "sdp.sessions": len(sessions),
        "sdp.session_setup.s": _total(sessions),
        "sdp.project_cone.s": _timer_s(timers, "sdp.project_cone"),
        "sdp.project_affine.s": _timer_s(timers, "sdp.project_affine"),
        "sdp.max_var_reals": max((s.attrs.get("var_reals", 0) for s in sessions), default=0),
        "entropies.d_max_smooth.calls": len(dmax),
        "entropies.d_max_smooth.self_s": sum(s.self_seconds for s in dmax),
        "entropies.probes_per_value": dmax_solves / len(dmax) if dmax else 0.0,
        "entropies.np_test.calls": len(rec.named("entropies.np_test")),
        "entropies.np_test.s": _outermost_total(rec, "entropies.np_test"),
        "entropies.h_max.s": _outermost_total(rec, "entropies.h_max"),
        "entropies.von_neumann.s": _total(rec.named("entropies.von_neumann")),
        "prep.prepare.s": _total(rec.named("prep.prepare")),
        "prep.thresholds.calls": len(th),
        # a cached call returns before any probed layer below it runs
        "prep.thresholds.cache_hits": sum(1 for s in th if not s.children),
        "prep.thresholds.self_s": sum(s.self_seconds for s in th),
        "compress.build.s": _total(builds),
        "compress.attempts": sum(s.attrs.get("attempts", 0) for s in builds),
        "compress.nice_share": _mean(s.attrs.get("nice_share", 0.0) for s in builds),
        "covering.good_set.calls": len(good),
        "covering.good_set.s": _total(good),
        "covering.good_share": _ratio(
            sum(s.attrs.get("good", 0) for s in good), sum(s.attrs.get("offered", 0) for s in good)
        ),
        "hashing.preimages.calls": _timer_calls(timers, "hashing.preimages"),
        "hashing.preimages.s": pre.seconds if pre else 0.0,
        "hashing.fiber_mean": _ratio(pre.items, pre.calls) if pre else 0.0,
        "hashing.apply_many.s": _timer_s(timers, "hashing.apply_many"),
        "cdcqsi.decoder_build.calls": _timer_calls(timers, "cdcqsi.decoder_build"),
        "cdcqsi.decoder_build.s": _timer_s(timers, "cdcqsi.decoder_build"),
        "compose.centralised.self_s": sum(s.self_seconds for s in rec.named("compose.centralised")),
        "splitting.split_control.s": _total(splits),
        "regions.one_shot.self_s": sum(s.self_seconds for s in regions),
        "regions.cells": sum(
            1 for s in splits if _has_ancestor(rec, s, "regions.one_shot")
        ),
        "regions.iid.s": _total(rec.named("regions.iid")),
        "linalg.calls": _timer_calls(timers, "linalg"),
        "linalg.s": _timer_s(timers, "linalg"),
        "process.cpu_s": cpu_s,
        "process.wait_s": wall_s - cpu_s,
    }


def _total(spans) -> float:
    return sum(s.seconds for s in spans)


def _timer_s(timers: dict[str, Timer], name: str) -> float:
    t = timers.get(name)
    return t.seconds if t else 0.0


def _timer_calls(timers: dict[str, Timer], name: str) -> int:
    t = timers.get(name)
    return t.calls if t else 0


def _mean(values) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _has_ancestor(rec: Recorder, span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if rec.spans[parent].name == name:
            return True
        parent = rec.spans[parent].parent
    return False


def _outermost_total(rec: Recorder, name: str) -> float:
    """Time of spans named ``name`` that have no ancestor of the same name."""
    return sum(s.seconds for s in rec.named(name) if not _has_ancestor(rec, s, name))
