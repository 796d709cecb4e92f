"""Rate splitting: decompose X into independent U, V with max{U, V} ~ P_X.

The split is by CDF exponentiation on a fixed total order of the alphabet:
CDF_U = CDF_X^(1-theta) and CDF_V = CDF_X^theta, so CDF_max = CDF_U CDF_V
recovers CDF_X exactly for every theta.  theta = 0 makes U a copy of X and
V constant at the smallest element; theta = 1 swaps the roles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import qobjects as qo


@dataclass(frozen=True)
class SplitPair:
    theta: float
    p_u: qo.Distribution
    p_v: qo.Distribution


def split(p: qo.Distribution, theta: float, order: tuple[str, ...] | None = None) -> SplitPair:
    """Split ``p`` by CDF exponentiation along ``order`` (default: alphabet)."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta {theta} outside [0, 1]")
    order = tuple(order) if order is not None else p.alphabet
    if sorted(order) != sorted(p.alphabet):
        raise ValueError("order must be a permutation of the alphabet")
    probs = np.array([p.prob(s) for s in order])
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    cdf_u = cdf ** (1.0 - theta)
    cdf_v = cdf**theta
    pu = np.diff(np.concatenate([[0.0], cdf_u]))
    pv = np.diff(np.concatenate([[0.0], cdf_v]))
    pu = np.clip(pu, 0.0, None)
    pv = np.clip(pv, 0.0, None)
    return SplitPair(
        float(theta),
        qo.Distribution(order, pu / pu.sum()),
        qo.Distribution(order, pv / pv.sum()),
    )


def max_law(pair: SplitPair) -> qo.Distribution:
    """Distribution of max{U, V} under the split (independent U, V)."""
    order = pair.p_u.alphabet
    n = len(order)
    pu, pv = pair.p_u.probs, pair.p_v.probs
    cu, cv = np.cumsum(pu), np.cumsum(pv)
    out = np.zeros(n)
    for i in range(n):
        below_u = cu[i - 1] if i else 0.0
        below_v = cv[i - 1] if i else 0.0
        out[i] = pu[i] * below_v + pv[i] * below_u + pu[i] * pv[i]
    return qo.Distribution(order, out / out.sum())


def split_control_state(
    povm: qo.JointPOVM,
    rho: np.ndarray,
    theta: float,
    lay: la.SystemLayout | None = None,
    keep: tuple[str, ...] | None = None,
) -> qo.CQState:
    """Control cq state over (U, V, Y) with weights pU(u) pV(v) p(y | max(u, v)).

    Quantum blocks are the normalized post-measurement operators of
    Lambda_{max(u,v), y} (mirror form without a layout, steered-and-reduced
    otherwise).  Zero-probability (u, v, y) cells are omitted.
    """
    base = qo.post_measurement_cq(povm, rho, lay, keep)
    if lay is None:
        rho_a = rho
    else:
        rho_a = la.partial_trace(rho, lay, ["A"])
    joint = qo.induced_distribution(povm, la.assert_density(rho_a))
    px = qo.marginal_x(joint)
    pair = split(px, theta)
    symbols, weights, blocks = [], {}, {}
    for u in pair.p_u.alphabet:
        wu = pair.p_u.prob(u)
        if wu <= 1e-15:
            continue
        for v in pair.p_v.alphabet:
            wv = pair.p_v.prob(v)
            if wv <= 1e-15:
                continue
            x = max(u, v, key=list(px.alphabet).index)
            px_val = px.prob(x)
            if px_val <= 1e-15:
                continue
            for y in povm.alphabet_y:
                key_xy = qo.join_symbol(x, y)
                if key_xy not in base.blocks:
                    continue
                p_y_given_x = base.weights[key_xy] / px_val
                w = wu * wv * p_y_given_x
                if w <= 1e-15:
                    continue
                sym = qo.join_symbol(u, v, y)
                symbols.append(sym)
                weights[sym] = w
                blocks[sym] = base.blocks[key_xy]
    return qo.CQState(tuple(symbols), weights, blocks)
