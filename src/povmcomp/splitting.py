"""Rate splitting: decompose X into independent U, V with max{U, V} ~ P_X.

The split is by CDF exponentiation on a fixed total order of the alphabet:
CDF_U = CDF_X^(1-theta) and CDF_V = CDF_X^theta, so CDF_max = CDF_U CDF_V
recovers CDF_X exactly for every theta.  theta = 0 makes U a copy of X and
V constant at the smallest element; theta = 1 swaps the roles.
``split_control_state`` applies the split to a joint cq state over 'x|y',
such as a prepared instance's steered E-blocks: each cell's weighted block
is a scaled copy of its x|y block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import qobjects as qo


@dataclass(frozen=True)
class SplitPair:
    p_u: qo.Distribution
    p_v: qo.Distribution


def split(p: qo.Distribution, theta: float) -> SplitPair:
    """Split ``p`` by CDF exponentiation along its alphabet order."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta {theta} outside [0, 1]")
    cdf = np.cumsum(p.probs)
    cdf[-1] = 1.0
    cdf_u = cdf ** (1.0 - theta)
    cdf_v = cdf**theta
    pu = np.diff(np.concatenate([[0.0], cdf_u]))
    pv = np.diff(np.concatenate([[0.0], cdf_v]))
    pu = np.clip(pu, 0.0, None)
    pv = np.clip(pv, 0.0, None)
    return SplitPair(
        qo.Distribution(p.alphabet, pu / pu.sum()),
        qo.Distribution(p.alphabet, pv / pv.sum()),
    )


def split_control_state(cq: qo.CQState, theta: float) -> qo.CQState:
    """Control cq state over (U, V, Y) with weights pU(u) pV(v) p(y | max(u, v)).

    ``cq`` is a joint state over 'x|y'; p_X is the x-marginal of its block
    traces, split along the order in which x first appears.  The block of
    (u, v, y) is pU(u) pV(v) B_{x|y} / p_X(x), x = max(u, v), with B_{x|y}
    the weighted block of x|y.  Zero-probability cells are omitted.
    """
    probs = cq.probs
    px = qo.marginal(qo.Distribution(cq.symbols, probs), 0)
    pair = split(px, theta)
    rank = list(px.alphabet).index
    parts = [qo.split_symbol(s) for s in cq.symbols]
    symbols, scales, rows = [], [], []
    for u, wu in zip(pair.p_u.alphabet, pair.p_u.probs):
        for v, wv in zip(pair.p_v.alphabet, pair.p_v.probs):
            x = max(u, v, key=rank)
            if min(wu, wv, px.prob(x)) <= la.ZERO_MASS:
                continue
            scale = wu * wv / px.prob(x)
            for i, (x_s, y) in enumerate(parts):
                if x_s == x and scale * probs[i] > la.ZERO_MASS:
                    symbols.append(qo.join_symbol(u, v, y))
                    scales.append(scale)
                    rows.append(i)
    blocks = np.array(scales)[:, None, None] * cq.blocks[rows]
    return qo.CQState.derived(tuple(symbols), blocks)
