"""Instance preparation shared by the protocol simulators and regions.

The measured register A is purified against everything else: the reference
for rate purposes is E = B (x) R (x) M, where M is a rank-truncated mirror
completing the given state to a pure one.  Mirror-form operators
sqrt(rho_A) Lambda sqrt(rho_A) live on A and drive the POVM construction.
``PreparedInstance.steer`` is the one map from A-operators to E-operators;
``prepare`` steers the POVM with it once, and the E-blocks drive
deviations, side-information decoding, the thresholds and the rate
regions.  Every smooth entropy of those is taken on a cq state that
``CQState.group_parts`` and ``CQState.embed_parts`` cut from ``env_cq``;
``side_information`` is the one I_H on B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .. import linalg as la
from .. import qobjects as qo
from .. import entropies as ent
from ..budget import default_log_const
from ..io import Instance

# The outcome registers, one link each, in decoding order; link i is
# component i of a joint outcome symbol.
LINKS = ("X", "Y")


@dataclass
class PreparedInstance:
    instance: Instance
    rho_a: np.ndarray
    pinv_sqrt_rho_a: np.ndarray
    supp_proj_a: np.ndarray
    joint: qo.Distribution
    marginals: tuple[qo.Distribution, ...]  # per link, in LINKS order
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

    def steer(self, op_a: np.ndarray) -> np.ndarray:
        """E-operator steered by ``op_a`` on A, of trace Tr[op_a rho_A]: with the
        pure state as a matrix Psi on A x E, Tr_A of the Lueders sandwich
        collapses by cyclicity to (Psi^dag op_a Psi)^T.  A (..., d_A, d_A)
        stack is steered member by member with one product."""
        psi = self.global_pure.reshape(self.dim_a, self.dim_e)
        out = (psi.conj().T @ op_a @ psi).swapaxes(-1, -2)
        return (out + out.conj().swapaxes(-1, -2)) / 2

    @cached_property
    def rho_e(self) -> np.ndarray:
        """The reduced state on E, steered by the identity."""
        return self.steer(np.eye(self.dim_a))

    def has_side_information(self) -> bool:
        return self.env_dims["B"] > 1

    def env_layout(self) -> la.SystemLayout:
        d = self.env_dims
        return la.layout(("B", d["B"]), ("R", d["R"]), ("M", d["M"]))

    def env_cq(self) -> qo.CQState:
        """cq state over (x, y) with normalized steered E-blocks, built once;
        every caller derives new states from it and mutates none of its dicts."""
        return self._env_cq

    @cached_property
    def _env_cq(self) -> qo.CQState:
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
    joint = qo.induced_distribution(inst.povm, rho_a)
    sqrt_a = la.matrix_sqrt(rho_a)
    mirror_blocks = {
        key: sqrt_a @ el @ sqrt_a for key, el in inst.povm.elements.items()
    }
    prep = PreparedInstance(
        instance=inst,
        rho_a=rho_a,
        pinv_sqrt_rho_a=la.pseudo_inverse_sqrt(rho_a),
        supp_proj_a=la.support_projector(rho_a),
        joint=joint,
        marginals=tuple(qo.marginal(joint, i) for i in range(len(LINKS))),
        global_pure=psi,
        env_dims={"B": inst.dim_b, "R": inst.dim_r, "M": dm},
        mirror_blocks=mirror_blocks,
        env_blocks={},
    )
    prep.env_blocks.update((key, prep.steer(el)) for key, el in inst.povm.elements.items())
    return prep


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
    the side-information corrections of the assisted rate region.  Link i's
    logL and logKL keys end in i + 1 (``logL1``), its others in its name
    (``imax_x``, ``ih_x_b``).  The entropies do not depend on ``log_const``
    and are computed once per eps.
    """
    c = default_log_const(eps) if log_const is None else float(log_const)
    key = ("thresholds", eps, c)
    if key in prep._cache:
        return prep._cache[key]
    ents = prep._cache.get(("entropies", eps))
    names = [link.lower() for link in LINKS]
    if ents is None:
        eps0 = eps ** (1.0 / 10.0)
        ents = prep._cache[("entropies", eps)] = {}
        # link i's I_max is taken against E and the classical links before
        # it; both come from one batch
        i_maxes = ent.i_max_cq_many([_x_env_cq(prep), _y_xenv_cq(prep)], eps)
        for i, (s, i_max) in enumerate(zip(names, i_maxes)):
            ents[f"imax_{s}"] = i_max
            ents[f"hmax_{s}"] = ent.h_max_smooth(prep.marginals[i], eps)
            ents[f"ih_{s}_b"] = side_information(prep, prep.env_cq().group_parts((i,)), eps0 / 2)
    out = {"log_const": c, **ents}
    for n, s in enumerate(names, start=1):
        out[f"logL{n}"] = ents[f"imax_{s}"] + c
        out[f"logKL{n}"] = ents[f"hmax_{s}"] + c
        out[f"rate_{s}"] = out[f"logL{n}"] - ents[f"ih_{s}_b"]
        out[f"coin_rate_{s}"] = max(out[f"logKL{n}"] - out[f"logL{n}"], 0.0)
    prep._cache[key] = out
    return out

