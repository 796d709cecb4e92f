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
    intersect CLOSE (primed state close to the original).  ``good_sets``
    with one row, in which every part takes a slice.
    """
    present = np.ones((1, len(parts)), dtype=bool)
    good, primed, prob_good, op_slack = good_sets(parts, [weights], present, target, [eps])
    idx = np.flatnonzero(good[0]).tolist()
    primed_of = {i: primed[0, i] for i in idx}
    return GoodSetCertificate(idx, primed_of, float(prob_good[0]), float(op_slack[0]), eps)


def good_sets(parts, weights, present, target, eps):
    """GOOD sets of every row of ``weights`` over one (n, d, d) stack of states.

    Row r purifies sum_i w_ri parts_i with a slice of C per part that
    ``present[r]`` offers, at slack ``eps[r]``.  The target is checked and
    decomposed once, the roots, distances and slacks of all rows are stacked,
    and only the Uhlmann partner runs row by row.  Returns the GOOD mask
    (b, n), the primed states (b, n, d, d), zero off GOOD, and per row
    prob_good and op_slack (``GoodSetCertificate``'s).
    """
    eps = np.asarray(eps, dtype=float)
    if np.any((eps <= 0) | (eps >= 1)):
        raise ValueError("eps must lie in (0, 1)")
    target, *eig = la.density_eigh(target)
    parts, weights = la._as_stack(parts), np.asarray(weights, dtype=float)
    (b, n), d = weights.shape, target.shape[0]
    hyp = la.trace_norm_many(np.einsum("rn,nij->rij", weights, parts) - target)
    if np.any(hyp > eps + 1e-9):
        r = int(np.argmax(hyp - eps))
        raise ValueError(f"hypothesis distance {hyp[r]:.3e} exceeds eps {eps[r]}")
    quarter = eps**0.25
    live = present & (weights > 0)
    used = live.any(axis=0)
    # psi on A (x) (A' x C), slices along C
    psi = np.zeros((b, d, d, n), dtype=complex)
    roots = np.moveaxis(la.matrix_sqrt_many(parts[used]), 0, -1)
    psi[..., used] = np.sqrt(weights[:, None, None, used]) * roots
    phi = np.zeros_like(psi)
    for r, cols in enumerate(present):
        phi[r][..., cols] = la.uhlmann_partner(psi[r][..., cols], target, eig).reshape(d, d, -1)
    # the live parts phi does not vanish on
    q = np.sum(np.abs(phi) ** 2, axis=(1, 2))
    kept = live & (q > 1e-300)
    rows, cols = np.nonzero(kept)
    v = phi[rows, :, :, cols]
    rho_p = v @ v.conj().swapaxes(-1, -2) / q[kept][:, None, None]
    ratio = weights[kept] / q[kept]
    dists = la.trace_norm_many(rho_p - ratio[:, None, None] * parts[cols])
    in_good = (np.abs(1.0 - ratio) <= quarter[rows]) & (dists <= quarter[rows])
    good, primed = np.zeros_like(kept), np.zeros((b, n, d, d), dtype=complex)
    good[rows, cols], primed[rows, cols] = in_good, rho_p * in_good[:, None, None]
    prob_good = np.where(good, weights, 0.0).sum(axis=1)
    bound = (1.0 + quarter)[:, None, None] * target - np.einsum("rn,rnij->rij", weights, primed)
    op_slack = np.linalg.eigvalsh((bound + bound.conj().swapaxes(-1, -2)) / 2)[:, 0]
    return good, primed, prob_good, op_slack


def transformed_rows(sigmas, weights, eps):
    """``good_sets``' parts, weights and slacks for subnormalized pieces:
    pieces normalized (I / d of weight 0 at trace <= 1e-14), row r's
    weights w_ri Tr[sigma_i] / sum_j w_rj Tr[sigma_j], slacks doubled
    (normalizing the average at most doubles the hypothesis distance)."""
    sigmas, weights = la._as_stack(sigmas), np.asarray(weights, dtype=float)
    traces = np.array([float(np.trace(s).real) for s in sigmas])
    tiny = traces <= 1e-14
    # each row summed in order, as a sum over its pieces
    z = np.cumsum(weights * traces, axis=1)[:, -1:]
    flat = np.eye(sigmas.shape[-1], dtype=complex) / sigmas.shape[-1]
    parts = np.where(tiny[:, None, None], flat, sigmas / np.where(tiny, 1.0, traces)[:, None, None])
    new_weights = np.where(tiny | (weights <= 0), 0.0, weights * traces / z)
    return parts, new_weights, np.minimum(2 * np.asarray(eps, dtype=float), 0.999)


def extract_good_set_transformed(
    sigmas: list[np.ndarray], weights: list[float], target: np.ndarray, eps: float
) -> GoodSetCertificate:
    """GOOD-set for subnormalized pieces via normalize-and-reweight
    (``transformed_rows``)."""
    parts, new_weights, eps2 = transformed_rows(sigmas, [weights], [eps])
    return extract_good_set(list(parts), new_weights[0].tolist(), target, float(eps2[0]))
