"""Achievable rate regions: one-shot (union over split parameter) and iid.

One-shot half-spaces per split parameter theta and split axis, projected
from the internal (U, V) rates onto (R_X, R_Y, C_X, C_Y): eliminating
R_U + R_V = R_X and C_U + C_V = C_X from the per-register constraints
R_U > aU, R_V > aV, C_U + R_U > bU, C_V + R_V > bV leaves

    R_X > aU + aV,   R_X + C_X > max(bU + bV, aU + bV, bU + aV).

A degenerate split register (point mass) needs no sub-channel at all, so
its contribution is zero rather than the literal smoothed quantities of a
constant variable; this makes the theta endpoints reproduce the unsplit
two-channel region exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import entropies as ent
from .. import linalg as la
from .. import qobjects as qo
from .. import splitting as sp
from ..budget import default_log_const
from ..io import Instance
from .prep import PreparedInstance, prepare


@dataclass
class HalfSpace:
    """coeffs . (R_X, R_Y, C_X, C_Y) > rhs, with provenance."""

    coeffs: dict[str, float]
    rhs: float
    provenance: dict

    def to_payload(self) -> dict:
        return {"coeffs": self.coeffs, "rhs": self.rhs, "provenance": self.provenance}


@dataclass
class RateRegion:
    constraints: list[HalfSpace] = field(default_factory=list)
    kind: str = "one-shot"

    def to_payload(self) -> dict:
        return {"kind": self.kind, "constraints": [h.to_payload() for h in self.constraints]}

    def admits(self, r_x: float, r_y: float, c_x: float, c_y: float, slack: float = 0.0) -> bool:
        point = {"R_X": r_x, "R_Y": r_y, "C_X": c_x, "C_Y": c_y}
        groups: dict[tuple, list[HalfSpace]] = {}
        for h in self.constraints:
            tag = (h.provenance.get("axis"), h.provenance.get("theta"))
            groups.setdefault(tag, []).append(h)
        for constraints in groups.values():
            if all(
                sum(h.coeffs.get(k, 0.0) * v for k, v in point.items()) > h.rhs - slack
                for h in constraints
            ):
                return True
        return False


def _group_cq(cq: qo.CQState, idx: tuple[int, ...]) -> qo.CQState:
    return cq.group_symbols(lambda s: qo.join_symbol(*[qo.split_symbol(s)[i] for i in idx]))


def _embed_classical(cq: qo.CQState, keep_idx: int, side_idx: tuple[int, ...]) -> qo.CQState:
    """cq over register keep_idx whose blocks carry the side classical
    registers (diagonally embedded) tensored with the quantum part."""
    first = _group_cq(cq, (keep_idx,))
    side_syms: list[str] = []
    for s in cq.symbols:
        parts = qo.split_symbol(s)
        key = qo.join_symbol(*[parts[i] for i in side_idx])
        if key not in side_syms:
            side_syms.append(key)
    d = cq.quantum_dim
    n_side = len(side_syms)
    symbols, weights, blocks = [], {}, {}
    for tsym in first.symbols:
        w = first.weights[tsym]
        if w <= 1e-15:
            continue
        blk = np.zeros((n_side * d, n_side * d), dtype=complex)
        for s in cq.symbols:
            parts = qo.split_symbol(s)
            if parts[keep_idx] != tsym:
                continue
            j = side_syms.index(qo.join_symbol(*[parts[i] for i in side_idx]))
            blk[j * d : (j + 1) * d, j * d : (j + 1) * d] += (
                cq.weights[s] / w * cq.blocks[s]
            )
        symbols.append(tsym)
        weights[tsym] = w
        blocks[tsym] = blk
    return qo.CQState(tuple(symbols), weights, blocks)


def _imax_of_cq(cq: qo.CQState, eps: float) -> float:
    return ent.i_max_smooth(cq.dense(), (len(cq.symbols), cq.quantum_dim), eps)


def _ih_b(cq_b: qo.CQState, eps: float, has_b: bool) -> float:
    if not has_b:
        return 0.0
    val, _ = ent.i_hyp_cq(cq_b, eps)
    return 0.0 if math.isinf(val) else val


def _degenerate(cq: qo.CQState) -> bool:
    live = [s for s in cq.symbols if cq.weights[s] > 1e-12]
    return len(live) <= 1


def one_shot_region(
    source: Instance | PreparedInstance,
    eps: float,
    theta_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    axes: tuple[str, ...] = ("X", "Y"),
    log_const: float | None = None,
) -> RateRegion:
    """Union over theta and split axis of the one-shot half-space lists."""
    prep = source if isinstance(source, PreparedInstance) else prepare(source)
    c = default_log_const(eps) if log_const is None else float(log_const)
    lay = prep.env_layout()
    has_b = prep.has_side_information()
    global_rho = np.outer(prep.global_pure, prep.global_pure.conj())
    d = prep.instance.dims
    full_lay = la.layout(("A", d["A"]), ("B", d["B"]), ("R", d["R"]), ("M", prep.env_dims["M"]))

    def bounds(imax_cq: qo.CQState, plain_cq: qo.CQState) -> tuple[float, float]:
        """(I_max - I_H + c, H_max - I_H) of one split register, I_H on B.

        ``imax_cq`` carries the register with its side registers, for I_max;
        ``plain_cq`` is the register alone.  A degenerate register needs no
        sub-channel, so both are 0.
        """
        if _degenerate(imax_cq):
            return 0.0, 0.0
        plain_b = plain_cq.map_blocks(lambda b: la.partial_trace(b, lay, ["B"]))
        ih = _ih_b(plain_b, eps, has_b)
        a = _imax_of_cq(imax_cq, eps) - ih + c
        return a, ent.h_max_smooth(plain_cq.classical_distribution(), eps).value - ih

    region = RateRegion(kind="one-shot")
    for axis in axes:
        povm = prep.instance.povm if axis == "X" else _swap_povm(prep.instance.povm)
        for theta in theta_grid:
            ctrl = sp.split_control_state(povm, global_rho, theta, full_lay, keep=("B", "R", "M"))
            u_cq = _group_cq(ctrl, (0,))
            v_cq = _embed_classical(ctrl, 1, (0, 2))
            y_cq = _embed_classical(ctrl, 2, (0,))
            vals = {}
            vals["aU"], vals["bU"] = bounds(u_cq, u_cq)
            vals["aV"], vals["bV"] = bounds(v_cq, _group_cq(ctrl, (1,)))
            vals["aY"], vals["bY"] = bounds(y_cq, _group_cq(ctrl, (2,)))
            own_r, own_c = ("R_X", "C_X") if axis == "X" else ("R_Y", "C_Y")
            oth_r, oth_c = ("R_Y", "C_Y") if axis == "X" else ("R_X", "C_X")
            prov = {"axis": axis, "theta": theta, "eps": eps, "log_const": c, "values": vals}
            if not _degenerate(u_cq) and not _degenerate(v_cq):
                # cross facets from eliminating the internal split rates
                coin_sum = max(
                    vals["bU"] + vals["bV"],
                    vals["aU"] + vals["bV"],
                    vals["bU"] + vals["aV"],
                )
            else:
                coin_sum = vals["bU"] + vals["bV"]  # single live sub-channel
            region.constraints.append(
                HalfSpace({own_r: 1.0}, vals["aU"] + vals["aV"], dict(prov, bound="split-rate"))
            )
            region.constraints.append(
                HalfSpace({own_r: 1.0, own_c: 1.0}, coin_sum, dict(prov, bound="split-coin-sum"))
            )
            region.constraints.append(
                HalfSpace({oth_r: 1.0}, vals["aY"], dict(prov, bound="other-rate"))
            )
            region.constraints.append(
                HalfSpace({oth_r: 1.0, oth_c: 1.0}, vals["bY"], dict(prov, bound="other-coin-sum"))
            )
    return region


def _swap_povm(povm: qo.JointPOVM) -> qo.JointPOVM:
    return qo.JointPOVM(
        povm.alphabet_y,
        povm.alphabet_x,
        {(y, x): el for (x, y), el in povm.elements.items()},
    )


def iid_region(source: Instance | PreparedInstance) -> RateRegion:
    """Asymptotic region: five half-spaces from von Neumann quantities."""
    prep = source if isinstance(source, PreparedInstance) else prepare(source)
    cq = prep.env_cq()
    lay = prep.env_layout()
    d_e = prep.dim_e
    # classical joint (x, y) with E and B blocks
    dist = cq.classical_distribution()
    nx = len(prep.px.alphabet)
    ny = len(prep.py.alphabet)

    def cq_dense(group_idx: tuple[int, ...], reduce_to: tuple[str, ...] | None):
        state = _group_cq(cq, group_idx)
        if reduce_to is not None:
            state = state.map_blocks(lambda b: la.partial_trace(b, lay, reduce_to))
        return state

    def mi(state: qo.CQState) -> float:
        return ent.von_neumann_suite(state.dense(), (len(state.symbols), state.quantum_dim))[
            "I_AB"
        ]

    i_x_e = mi(cq_dense((0,), None))
    i_y_e = mi(cq_dense((1,), None))
    i_xy_e = mi(cq_dense((0, 1), None))
    i_x_b = mi(cq_dense((0,), ("B",))) if prep.has_side_information() else 0.0
    i_y_b = mi(cq_dense((1,), ("B",))) if prep.has_side_information() else 0.0
    h_x = _shannon(qo.marginal_x(prep.joint).probs)
    h_y = _shannon(qo.marginal_y(prep.joint).probs)
    i_x_y = h_x + h_y - _shannon(prep.joint.probs)
    prov = {"model": "iid", "values": {
        "I(X:E)": i_x_e, "I(Y:E)": i_y_e, "I(XY:E)": i_xy_e,
        "I(X:B)": i_x_b, "I(Y:B)": i_y_b, "I(X:Y)": i_x_y,
        "H(X)": h_x, "H(Y)": h_y,
    }}
    region = RateRegion(kind="iid")
    region.constraints = [
        HalfSpace({"R_X": 1.0}, i_x_e - i_x_b, dict(prov, bound="R_X")),
        HalfSpace({"R_Y": 1.0}, i_y_e - i_y_b, dict(prov, bound="R_Y")),
        HalfSpace(
            {"R_X": 1.0, "R_Y": 1.0},
            i_xy_e + i_x_y - i_x_b - i_y_b,
            dict(prov, bound="sum-rate"),
        ),
        HalfSpace({"R_X": 1.0, "C_X": 1.0}, h_x - i_x_b, dict(prov, bound="coin-X")),
        HalfSpace({"R_Y": 1.0, "C_Y": 1.0}, h_y - i_y_b, dict(prov, bound="coin-Y")),
    ]
    return region


def _shannon(probs) -> float:
    p = np.asarray(probs, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())
