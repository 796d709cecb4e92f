"""The benchmark's workloads: set-up, the operations of one timed pass, and
the checks each operation's output must pass.

Every workload is a fixed list of operations at eps = 0.1 on bundled
instances, so every run does identical work.  ``thresholds`` and ``region``
are deterministic.  ``decode`` draws its codebooks and hashes from library
seed 1, whatever the run's ``--seed``: the amount of decoding work depends
on the hash drawn (seed 4 needs 20% more fiber enumerations and twice the
decoder builds of seed 3), which would swamp the benchmark's bounds.
Library calls go through module attributes (``P.thresholds``, not an
imported name) so the traced run's probes see them.

Why these three (a change to one layer should show on one workload and
leave the others flat):

- ``thresholds`` spends nearly all its time in ``sdp.Session.solve`` under
  the smoothing bisection and makes no hashing or decoder calls.
- ``decode`` runs the centralised protocol with an explicit budget whose
  X link hashes 14 message bits to 12 wire bits (fibers of 4, decoded
  sequentially on B) and whose Y link is the identity; ``prepare`` and
  ``thresholds`` run in set-up, so the timed pass makes no SDP solves.
  The budget is explicit because the default-budget path costs 40-120 s
  and its rates follow ``budget_from_thresholds`` rounding, which is due
  to change; the benchmark's work must not change with it.
- ``region`` uses the same ``sdp`` and ``entropies`` layers on another
  shape (many short solves on larger problems) and exercises
  ``splitting``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from povmcomp import entropies as ent
from povmcomp import io
from povmcomp import protocols as P
from povmcomp.budget import OneShotBudget
from povmcomp.protocols import prep as prep_mod
from povmcomp.protocols.compress import AdversaryScenario

EPS = 0.1
THRESHOLD_INSTANCES = ("qubit_cq", "qubit_entangled_side_info", "instrument_derived")
DECODE_INSTANCE = "qubit_entangled_side_info"
DECODE_BUDGET = OneShotBudget(EPS, r_x=14, r_y=13, c_x=1, c_y=1)
DECODE_SEED = 1
DECODE_LOG_CONST = 0.0
DECODE_WIRE = {"X": 12}
REGION_INSTANCE = "instrument_derived"
REGION_THETAS = (0.5,)
REGION_AXES = ("X", "Y")

# slack on the smoothed I_max bracket: the bisection's own resolution
IMAX_TOL_BITS = ent.BISECT_TOL_BITS
OUTPUT_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, what: str) -> None:
    _require(abs(a - b) <= OUTPUT_TOL * (1.0 + abs(b)), f"{what}: {a!r} != {b!r}")


@dataclass
class Operation:
    """One timed library call and the check of its output (run untimed)."""

    instance: str
    stage: str
    run: Callable[[], object]
    check: Callable[[object], None]


# -- thresholds ------------------------------------------------------------


def _unsmoothed_imax(cq) -> float:
    return ent.i_max_smooth(cq.dense(), (len(cq.symbols), cq.quantum_dim), 0.0)


def check_thresholds(prep, th: dict) -> None:
    """Identities and brackets that hold whatever the smoothing solver does."""
    bad = sorted(k for k, v in th.items() if not math.isfinite(v))
    _require(not bad, f"non-finite thresholds {bad}")
    c = th["log_const"]
    _close(th["logL1"], th["imax_x"] + c, "logL1 = imax_x + c")
    _close(th["logL2"], th["imax_y"] + c, "logL2 = imax_y + c")
    _close(th["rate_x"], th["logL1"] - th["ih_x_b"], "rate_x = logL1 - ih_x_b")
    _close(th["rate_y"], th["logL2"] - th["ih_y_b"], "rate_y = logL2 - ih_y_b")
    for key, cq in (("imax_x", prep_mod._x_env_cq(prep)), ("imax_y", prep_mod._y_xenv_cq(prep))):
        top = _unsmoothed_imax(cq)
        _require(
            -IMAX_TOL_BITS <= th[key] <= top + IMAX_TOL_BITS,
            f"{key} = {th[key]!r} outside [-tol, unsmoothed {top!r} + tol]",
        )


def thresholds_setup(instances: tuple[str, ...]) -> dict:
    return {name: P.prepare(io.load_bundled(name)) for name in instances}


def thresholds_ops(state: dict) -> list[Operation]:
    """A fresh ``prepare`` per instance, so ``thresholds`` finds no cache."""

    def run(inst):
        prep = P.prepare(inst)
        return prep, P.thresholds(prep, EPS)

    def check(out):
        check_thresholds(*out)

    return [
        Operation(name, "thresholds", lambda inst=prep.instance: run(inst), check)
        for name, prep in state.items()
    ]


# -- decode ----------------------------------------------------------------


def decode_setup(instances: tuple[str, ...]) -> dict:
    (name,) = instances
    prep = P.prepare(io.load_bundled(name))
    P.thresholds(prep, EPS, DECODE_LOG_CONST)
    return {name: prep}


def check_decode(prep, run: dict) -> None:
    family = run["family"]
    resid = family.completeness_residual(prep)
    _require(resid <= OUTPUT_TOL, f"completeness residual {resid!r}")
    for name, sc in run["scenarios"].items():
        tr = sum(float(np.trace(op).real) for op in sc["output"].values())
        _require(abs(tr - 1.0) <= OUTPUT_TOL, f"{name} output trace {tr!r}")
        _require(0.0 <= sc["deviation"] <= 2.0, f"{name} deviation {sc['deviation']!r}")
    stage_y = run["stage_y"]
    if stage_y.wire_bits == stage_y.log_l and "y_only" in run["scenarios"]:
        # an identity link decodes nothing, so it must match the unassisted run
        ref = P.simulate_unassisted(
            prep, DECODE_BUDGET, DECODE_SEED, scenario=AdversaryScenario(False, True), family=family
        )
        got = run["scenarios"]["y_only"]["deviation"]
        want = ref["scenarios"]["y_only"]["deviation"]
        _require(abs(got - want) <= OUTPUT_TOL, f"y_only deviation {got!r} != unassisted {want!r}")
    tr = run["transcript"]
    want_mx = 0 if tr["abort"] else run["stage_x"].hash_scheme.apply(tr["l1"])
    _require(tr["mx"] == want_mx, f"transcript mx {tr['mx']} != hash of l1 {want_mx}")


def decode_ops(state: dict) -> list[Operation]:
    ((name, prep),) = state.items()

    def run():
        return P.centralised_protocol(
            prep, DECODE_BUDGET, DECODE_SEED, log_const=DECODE_LOG_CONST, wire_override=DECODE_WIRE
        )

    return [Operation(name, "centralised", run, lambda out: check_decode(prep, out))]


# -- region ----------------------------------------------------------------


def region_setup(instances: tuple[str, ...]) -> dict:
    (name,) = instances
    return {name: P.prepare(io.load_bundled(name))}


def check_one_shot(region) -> None:
    cells: dict[tuple, int] = {}
    for h in region.constraints:
        _require(math.isfinite(h.rhs), f"non-finite one-shot constraint {h.provenance}")
        key = (h.provenance["axis"], h.provenance["theta"])
        cells[key] = cells.get(key, 0) + 1
    want = {(a, t): 4 for a in REGION_AXES for t in REGION_THETAS}
    _require(cells == want, f"one-shot cells {cells} != 4 per (axis, theta)")
    _require(not region.admits(0.0, 0.0, 0.0, 0.0), "one-shot region admits the origin")


def check_iid(region) -> None:
    _require(len(region.constraints) == 5, f"{len(region.constraints)} iid constraints")
    _require(all(math.isfinite(h.rhs) for h in region.constraints), "non-finite iid constraint")


def region_ops(state: dict) -> list[Operation]:
    ((name, prep),) = state.items()

    def one_shot():
        return P.one_shot_region(prep, EPS, theta_grid=REGION_THETAS, axes=REGION_AXES)

    return [
        Operation(name, "one_shot_region", one_shot, check_one_shot),
        Operation(name, "iid_region", lambda: P.iid_region(prep), check_iid),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[str, ...]
    setup: Callable[[tuple[str, ...]], dict]
    ops: Callable[[dict], list[Operation]]


WORKLOADS = {
    "thresholds": Workload("thresholds", THRESHOLD_INSTANCES, thresholds_setup, thresholds_ops),
    "decode": Workload("decode", (DECODE_INSTANCE,), decode_setup, decode_ops),
    "region": Workload("region", (REGION_INSTANCE,), region_setup, region_ops),
}

# Structural facts of the workloads that the traced run checks; a breach
# means the workload no longer exercises (or bypasses) the layer it is for.
INVARIANTS = {
    "thresholds": (("hashing.preimages.calls", 0), ("cdcqsi.decoder_build.calls", 0)),
    "decode": (("sdp.solves", 0), ("sdp.sessions", 0)),
    "region": (("hashing.preimages.calls", 0), ("cdcqsi.decoder_build.calls", 0)),
}


def invariant_breaches(workload: str, metrics: dict) -> list[str]:
    out = [
        f"{name} = {metrics[name]} (expected {want})"
        for name, want in INVARIANTS[workload]
        if metrics[name] != want
    ]
    if workload == "decode":
        calls, hits = metrics["prep.thresholds.calls"], metrics["prep.thresholds.cache_hits"]
        if calls == 0 or hits != calls:
            out.append(f"prep.thresholds: {hits} cache hits of {calls} calls (expected all)")
    return out
