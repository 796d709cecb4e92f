"""Covering experiments: measure-transformed sample averages over
independent codebooks, and GOOD-set extraction via the constructive
operator inequality (purify, Uhlmann partner, reweight).

Codebook randomness is summarized by symbol counts: grouping the sample
average by symbol turns a K x L double sum into an |X| x |Y| one, so the
estimators scale to the large codebook sizes the rate thresholds demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import qobjects as qo


# ---------------------------------------------------------------------------
# measure-transformed covering estimator


def _joint_tables(joint: qo.CQState):
    """Split 'x|y' symbols into index tables (p_xy, ratio, blocks)."""
    xs, ys = [], []
    for sym in joint.symbols:
        x, y = qo.split_symbol(sym)
        if x not in xs:
            xs.append(x)
        if y not in ys:
            ys.append(y)
    nx, ny = len(xs), len(ys)
    dim = joint.quantum_dim
    pxy = np.zeros((nx, ny))
    blocks = np.zeros((nx, ny, dim, dim), dtype=complex)
    for sym in joint.symbols:
        x, y = qo.split_symbol(sym)
        i, j = xs.index(x), ys.index(y)
        pxy[i, j] = joint.weights[sym]
        blocks[i, j] = joint.blocks[sym]
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.outer(px, py) > 0, pxy / np.outer(px, py), 0.0)
    return xs, ys, pxy, px, py, ratio, blocks


def _transformed_average(counts_x, counts_y, k, l, ratio, blocks) -> np.ndarray:
    weights = np.outer(counts_x, counts_y) * ratio / (k * l)
    return np.einsum("xy,xyij->ij", weights, blocks)


def _prefix_counts(counts: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Counts of the first m draws given total counts (hypergeometric chain)."""
    total = int(counts.sum())
    if m >= total:
        return counts.copy()
    out = np.zeros_like(counts)
    remaining_pool = total
    remaining_draw = m
    for i, c in enumerate(counts):
        if remaining_draw == 0:
            break
        c = int(c)
        other = remaining_pool - c
        h = int(rng.hypergeometric(c, other, remaining_draw)) if other > 0 else remaining_draw
        h = min(h, c, remaining_draw)
        out[i] = h
        remaining_draw -= h
        remaining_pool -= c
    return out


def covering_sweep(
    joint: qo.CQState,
    log_k_grid: list[int],
    log_l_grid: list[int],
    trials: int,
    seed: int,
) -> list[dict[str, float]]:
    """Covering error along a (logK, logL) grid with coupled codebooks.

    Within a trial, smaller codebooks are prefixes of the largest one, so
    the mean deviation decays monotonically along the grid up to noise.
    Rows are CSV-ready: (logK, logL, meanError, stderr, trials, seed).
    """
    _, _, pxy, px, py, ratio, blocks = _joint_tables(joint)
    sigma = np.einsum("xy,xyij->ij", pxy, blocks)
    k_max, l_max = 2 ** max(log_k_grid), 2 ** max(log_l_grid)
    levels = sorted({(lk, ll) for lk, ll in zip(log_k_grid, log_l_grid)})
    sums = {lv: [] for lv in levels}
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(t,)))
        cx_full = rng.multinomial(k_max, px / px.sum())
        cy_full = rng.multinomial(l_max, py / py.sum())
        for lk, ll in levels:
            cx = _prefix_counts(cx_full, 2**lk, rng)
            cy = _prefix_counts(cy_full, 2**ll, rng)
            avg = _transformed_average(cx, cy, 2**lk, 2**ll, ratio, blocks)
            sums[(lk, ll)].append(la.trace_norm(avg - sigma))
    rows = []
    for lk, ll in levels:
        vals = np.array(sums[(lk, ll)])
        rows.append(
            {
                "logK": lk,
                "logL": ll,
                "meanError": float(vals.mean()),
                "stderr": float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
                "trials": trials,
                "seed": seed,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# operator inequality: GOOD-set extraction


@dataclass
class GoodSetCertificate:
    good: list[int]
    primed: dict[int, np.ndarray]
    prob_good: float
    op_slack: float  # min eig of (1 + eps^(1/4)) target - sum_{good} w rho'
    eps_used: float


def extract_good_set(
    parts: list[np.ndarray], weights: list[float], target: np.ndarray, eps: float
) -> GoodSetCertificate:
    """Constructive GOOD-set for states averaging close to ``target``.

    Follows the purification proof literally: psi = sum sqrt(w_i) |rho_i>|i>,
    phi = Uhlmann partner of target's purification in the same space, primed
    states read off the |i> slices, GOOD = INDEX (weight ratio close to 1)
    intersect CLOSE (primed state close to the original).  The square roots
    of the parts with positive weight come from one stacked ``eigh``, which
    checks them as ``assert_psd`` does, and the CLOSE distances of the
    parts phi does not vanish on from one stacked ``eigvalsh``.
    """
    if eps <= 0 or eps >= 1:
        raise ValueError("eps must lie in (0, 1)")
    target = la.assert_density(target)
    d = target.shape[0]
    n = len(parts)
    if len(weights) != n:
        raise ValueError("weights and parts length mismatch")
    avg = sum(w * la.as_matrix(p) for w, p in zip(weights, parts))
    hyp = la.trace_norm_distance(avg, target)
    if hyp > eps + 1e-9:
        raise ValueError(f"hypothesis distance {hyp:.3e} exceeds eps {eps}")
    quarter = eps**0.25
    live = [i for i in range(n) if weights[i] > 0]
    # psi on A (x) (A' x C), slices along C
    psi = np.zeros((d, d, n), dtype=complex)
    roots = la.matrix_sqrt_many(np.reshape([parts[i] for i in live], (len(live), d, d)))
    for i, root in zip(live, roots):
        psi[:, :, i] = math.sqrt(weights[i]) * root
    phi = la.uhlmann_partner(psi.reshape(d, d * n).reshape(-1), target)
    phi = phi.reshape(d, d, n)
    kept = []  # (i, q, rho_p) of the live parts phi does not vanish on
    for i in live:
        v = phi[:, :, i]
        q = float(np.sum(np.abs(v) ** 2))
        if q > 1e-300:
            kept.append((i, q, v @ v.conj().T / q))
    diffs = [rho_p - (weights[i] / q) * la.as_matrix(parts[i]) for i, q, rho_p in kept]
    dists = la.trace_norm_many(np.reshape(diffs, (len(kept), d, d)))
    good, primed = [], {}
    prob_good = 0.0
    for (i, q, rho_p), scaled_dist in zip(kept, dists):
        w = weights[i]
        in_index = abs(1.0 - w / q) <= quarter
        in_close = scaled_dist <= quarter
        if in_index and in_close:
            good.append(i)
            primed[i] = rho_p
            prob_good += w
    bound = (1.0 + quarter) * target
    for i in good:
        bound = bound - weights[i] * primed[i]
    op_slack = float(np.linalg.eigvalsh((bound + bound.conj().T) / 2)[0])
    return GoodSetCertificate(good, primed, prob_good, op_slack, eps)


def extract_good_set_transformed(
    sigmas: list[np.ndarray], weights: list[float], target: np.ndarray, eps: float
) -> GoodSetCertificate:
    """GOOD-set for subnormalized pieces via normalize-and-reweight.

    Pieces are normalized to states, weights move to w_i Tr[sigma_i], and
    the extraction runs with doubled slack (normalizing the average at most
    doubles the hypothesis distance).
    """
    traces = [float(np.trace(s).real) for s in sigmas]
    z = sum(w * t for w, t in zip(weights, traces))
    parts, new_weights = [], []
    for s, w, t in zip(sigmas, weights, traces):
        if t <= 1e-14 or w <= 0:
            parts.append(np.eye(s.shape[0], dtype=complex) / s.shape[0])
            new_weights.append(0.0)
        else:
            parts.append(la.as_matrix(s) / t)
            new_weights.append(w * t / z)
    return extract_good_set(parts, new_weights, target, min(2 * eps, 0.999))

