"""Achievable rate regions: one-shot (union over split parameter) and iid.

One-shot half-spaces per split parameter theta and split axis, projected
from the internal (U, V) rates onto (R_X, R_Y, C_X, C_Y): eliminating
R_U + R_V = R_X and C_U + C_V = C_X from the per-register constraints
R_U > aU, R_V > aV, C_U + R_U > bU, C_V + R_V > bV leaves

    R_X > aU + aV,   R_X + C_X > max(bU + bV, aU + bV, bU + aV).

A degenerate split register (point mass) needs no sub-channel at all, so
its contribution is zero rather than the literal smoothed quantities of a
constant variable; this makes the theta endpoints reproduce the unsplit
two-channel region within round-off (their smoothing balls differ from the
thresholds' in the last bits).

Both regions read the prepared instance's steered E-blocks (``env_cq``), one
stack of weighted blocks whose traces are the outcome probabilities: the
one-shot region splits that joint state, or for axis Y the state with its
components swapped, and steers nothing again; every register it hands to the
entropies is cut from the split state by summing or scattering its blocks.

The I_max of every live register, over all cells, is one
``entropies.i_max_cq_many`` call, which makes one solve and one certificate
per distinct value, keyed by bytes.  Where the outcomes pair each x with
one y (instrument_derived), a Y cell's registers are its X cell's to the
byte, so the second axis adds no solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import entropies as ent
from .. import linalg as la
from .. import qobjects as qo
from .. import splitting as sp
from ..budget import default_log_const
from ..io import Instance
from .prep import LINKS, PreparedInstance, prepare, side_information


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

    def admits(self, r_x: float, r_y: float, c_x: float, c_y: float) -> bool:
        point = {"R_X": r_x, "R_Y": r_y, "C_X": c_x, "C_Y": c_y}
        groups: dict[tuple, list[HalfSpace]] = {}
        for h in self.constraints:
            tag = (h.provenance.get("axis"), h.provenance.get("theta"))
            groups.setdefault(tag, []).append(h)
        for constraints in groups.values():
            if all(
                sum(h.coeffs.get(k, 0.0) * v for k, v in point.items()) > h.rhs
                for h in constraints
            ):
                return True
        return False


def _degenerate(cq: qo.CQState) -> bool:
    return int((cq.probs > la.ZERO_MASS).sum()) <= 1


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
    env_cq = prep.env_cq()

    def bounds(i_max: float, plain_cq: qo.CQState) -> tuple[float, float]:
        """(I_max - I_H + c, H_max - I_H) of one live split register, I_H
        on B: ``i_max`` is the I_max of the register with its side
        registers, ``plain_cq`` the register alone."""
        ih = side_information(prep, plain_cq, eps)
        return i_max - ih + c, ent.h_max_smooth(plain_cq.classical_distribution(), eps) - ih

    # per (axis, theta) cell, the (I_max register, plain register) of U, V
    # and the other link's Y
    cells = []
    for axis in axes:
        # the split link's component first, then the other link's
        own = LINKS.index(axis)
        joint = env_cq.group_parts((own, 1 - own))
        for theta in theta_grid:
            ctrl = sp.split_control_state(joint, theta)
            u_cq = ctrl.group_parts((0,))
            registers = (
                (u_cq, u_cq),
                (ctrl.embed_parts(1, (0, 2)), ctrl.group_parts((1,))),
                (ctrl.embed_parts(2, (0,)), ctrl.group_parts((2,))),
            )
            cells.append((axis, theta, registers))
    # a degenerate register needs no sub-channel, so both its bounds are 0;
    # the I_max of every live one, over all cells, comes from one batch
    live = [imax_cq for *_, regs in cells for imax_cq, _ in regs if not _degenerate(imax_cq)]
    i_maxes = iter(ent.i_max_cq_many(live, eps))

    region = RateRegion(kind="one-shot")
    for axis, theta, registers in cells:
        other = LINKS[1 - LINKS.index(axis)]
        own_r, own_c, oth_r, oth_c = f"R_{axis}", f"C_{axis}", f"R_{other}", f"C_{other}"
        vals = {}
        for name, (imax_cq, plain_cq) in zip("UVY", registers):
            live_reg = not _degenerate(imax_cq)
            vals[f"a{name}"], vals[f"b{name}"] = (
                bounds(next(i_maxes), plain_cq) if live_reg else (0.0, 0.0)
            )
        prov = {"axis": axis, "theta": theta, "eps": eps, "log_const": c, "values": vals}
        (u_cq, _), (v_cq, _), _ = registers
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


def iid_region(source: Instance | PreparedInstance) -> RateRegion:
    """Asymptotic region: five half-spaces from Holevo quantities of the
    prepared cq state (``ent.holevo_cq``) and Shannon entropies.

    I(X:E), I(Y:E) and I(XY:E) are those of the steered E-blocks grouped to
    the link's components, I(X:B) and I(Y:B) of the same states with their
    blocks reduced to B (0 without side information); H(X), H(Y) and
    I(X:Y) = H(X) + H(Y) - H(XY) come from the outcome distributions.
    """
    prep = source if isinstance(source, PreparedInstance) else prepare(source)
    cq = prep.env_cq()
    lay = prep.env_layout()
    side = prep.has_side_information()
    per_link = [cq.group_parts((i,)) for i in range(len(LINKS))]
    i_e = [ent.holevo_cq(state) for state in per_link]
    i_b = [
        ent.holevo_cq(state.map_blocks(lambda b: la.partial_trace(b, lay, ("B",)))) if side else 0.0
        for state in per_link
    ]
    h = [ent.spectrum_entropy(m.probs) for m in prep.marginals]
    i_xy_e = ent.holevo_cq(cq.group_parts((0, 1)))
    i_x_y = h[0] + h[1] - ent.spectrum_entropy(prep.joint.probs)
    prov = {"model": "iid", "values": {
        **{f"I({link}:E)": v for link, v in zip(LINKS, i_e)},
        "I(XY:E)": i_xy_e,
        **{f"I({link}:B)": v for link, v in zip(LINKS, i_b)},
        "I(X:Y)": i_x_y,
        **{f"H({link})": v for link, v in zip(LINKS, h)},
    }}
    rate = [
        HalfSpace({f"R_{link}": 1.0}, i_e[i] - i_b[i], dict(prov, bound=f"R_{link}"))
        for i, link in enumerate(LINKS)
    ]
    sum_rate = HalfSpace(
        {f"R_{link}": 1.0 for link in LINKS},
        i_xy_e + i_x_y - i_b[0] - i_b[1],
        dict(prov, bound="sum-rate"),
    )
    coin = [
        HalfSpace(
            {f"R_{link}": 1.0, f"C_{link}": 1.0}, h[i] - i_b[i], dict(prov, bound=f"coin-{link}")
        )
        for i, link in enumerate(LINKS)
    ]
    return RateRegion([*rate, sum_rate, *coin], kind="iid")
