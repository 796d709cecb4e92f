"""Instance preparation shared by the protocol simulators and regions.

The measured register A is purified against everything else: the reference
for rate purposes is E = B (x) R (x) M, where M is a rank-truncated mirror
completing the given state to a pure one.  Mirror-form operators
sqrt(rho_A) Lambda sqrt(rho_A) live on A and drive the POVM construction;
steered blocks on E, formed once here, drive deviations, side-information
decoding, the thresholds and the rate regions.  Every smooth entropy of
those is taken on a cq state that ``CQState.group_parts`` and
``CQState.embed_parts`` cut from ``env_cq``; ``side_information`` is the
one I_H on B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import linalg as la
from .. import qobjects as qo
from .. import entropies as ent
from ..budget import default_log_const
from ..io import Instance


@dataclass
class PreparedInstance:
    instance: Instance
    rho_a: np.ndarray
    sqrt_rho_a: np.ndarray
    pinv_sqrt_rho_a: np.ndarray
    supp_proj_a: np.ndarray
    joint: qo.Distribution
    px: qo.Distribution
    py: qo.Distribution
    global_pure: np.ndarray  # state vector on A (x) E
    env_dims: dict[str, int]  # B, R, M dimensions inside E
    mirror_blocks: dict[tuple[str, str], np.ndarray]  # sqrt(rho) El sqrt(rho), trace p
    env_blocks: dict[tuple[str, str], np.ndarray]  # steered on E, trace p
    _cache: dict = field(default_factory=dict)

    @property
    def dim_a(self) -> int:
        return self.rho_a.shape[0]

    @property
    def dim_e(self) -> int:
        d = self.env_dims
        return d["B"] * d["R"] * d["M"]

    @property
    def dim_b(self) -> int:
        return self.env_dims["B"]

    def has_side_information(self) -> bool:
        return self.env_dims["B"] > 1

    def env_layout(self) -> la.SystemLayout:
        d = self.env_dims
        return la.layout(("B", d["B"]), ("R", d["R"]), ("M", d["M"]))

    def env_cq(self) -> qo.CQState:
        """cq state over (x, y) with normalized steered E-blocks."""
        symbols, weights, blocks = [], {}, {}
        for (x, y), blk in self.env_blocks.items():
            p = float(np.trace(blk).real)
            s = qo.join_symbol(x, y)
            symbols.append(s)
            weights[s] = p
            blocks[s] = blk / p if p > 1e-14 else np.eye(self.dim_e, dtype=complex) / self.dim_e
        return qo.CQState(tuple(symbols), weights, blocks)


def prepare(inst: Instance) -> PreparedInstance:
    lay = inst.layout()
    rho = la.assert_density(inst.state)
    rho_a = la.partial_trace(rho, lay, ["A"])
    # rank-truncated purification: global pure state on (A B R) (x) M
    psi = la.purify(rho, truncate=True, tol=1e-12)
    dm = psi.size // (inst.dim_a * inst.dim_b * inst.dim_r)
    full_lay = la.layout(("A", inst.dim_a), ("B", inst.dim_b), ("R", inst.dim_r), ("M", dm))
    global_rho = np.outer(psi, psi.conj())
    joint = qo.induced_distribution(inst.povm, rho_a)
    sqrt_a = la.matrix_sqrt(rho_a)
    mirror_blocks = {
        key: sqrt_a @ el @ sqrt_a for key, el in inst.povm.elements.items()
    }
    env_blocks = qo.steered_blocks(inst.povm, global_rho, full_lay, keep=("B", "R", "M"))
    return PreparedInstance(
        instance=inst,
        rho_a=rho_a,
        sqrt_rho_a=sqrt_a,
        pinv_sqrt_rho_a=la.pseudo_inverse_sqrt(rho_a),
        supp_proj_a=la.support_projector(rho_a),
        joint=joint,
        px=qo.marginal_x(joint),
        py=qo.marginal_y(joint),
        global_pure=psi,
        env_dims={"B": inst.dim_b, "R": inst.dim_r, "M": dm},
        mirror_blocks=mirror_blocks,
        env_blocks=env_blocks,
    )


def _x_env_cq(prep: PreparedInstance) -> qo.CQState:
    """cq over x with E-blocks averaged over y."""
    return prep.env_cq().group_parts((0,))


def _y_xenv_cq(prep: PreparedInstance) -> qo.CQState:
    """cq over y whose side blocks carry the classical X register and E."""
    return prep.env_cq().embed_parts(1, (0,))


def side_information(prep: PreparedInstance, cq: qo.CQState, eps: float) -> float:
    """I_H^eps(S : B) of a cq state ``cq`` over S with E-blocks: the
    side-information rate saving; 0 without B, and 0 where it is +inf.

    Without a B register there is no decoding stage, so no correction term
    (the literal I_H against a trivial register would be -log2(1-eps)).
    """
    if not prep.has_side_information():
        return 0.0
    lay = prep.env_layout()
    val, _ = ent.i_hyp_cq(cq.map_blocks(lambda b: la.partial_trace(b, lay, ["B"])), eps)
    return 0.0 if math.isinf(val) else val


def thresholds(
    prep: PreparedInstance, eps: float, log_const: float | None = None
) -> dict[str, float]:
    """Codebook-size and rate thresholds for the multi-link protocol.

    Returns logL / coin+message thresholds (unassisted construction) plus
    the side-information corrections of the assisted rate region.  The
    entropies do not depend on ``log_const`` and are computed once per eps.
    """
    c = default_log_const(eps) if log_const is None else float(log_const)
    key = ("thresholds", eps, c)
    if key in prep._cache:
        return prep._cache[key]
    ents = prep._cache.get(("entropies", eps))
    if ents is None:
        x_cq = _x_env_cq(prep)
        eps0 = eps ** (1.0 / 10.0)
        ents = prep._cache[("entropies", eps)] = {
            "imax_x": ent.i_max_cq(x_cq, eps),
            "imax_y": ent.i_max_cq(_y_xenv_cq(prep), eps),
            "hmax_x": ent.h_max_smooth(prep.px, eps).value,
            "hmax_y": ent.h_max_smooth(prep.py, eps).value,
            "ih_x_b": side_information(prep, x_cq, eps0 / 2),
            "ih_y_b": side_information(prep, prep.env_cq().group_parts((1,)), eps0 / 2),
        }
    out = {
        "log_const": c,
        "logL1": ents["imax_x"] + c,
        "logL2": ents["imax_y"] + c,
        "logKL1": ents["hmax_x"] + c,
        "logKL2": ents["hmax_y"] + c,
        **ents,
    }
    out["rate_x"] = out["logL1"] - out["ih_x_b"]
    out["rate_y"] = out["logL2"] - out["ih_y_b"]
    out["coin_rate_x"] = max(out["logKL1"] - out["logL1"], 0.0)
    out["coin_rate_y"] = max(out["logKL2"] - out["logL2"], 0.0)
    prep._cache[key] = out
    return out

