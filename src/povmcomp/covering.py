"""Covering experiments: measure-transformed sample averages over
independent codebooks, and GOOD-set extraction via the constructive
operator inequality (purify, Uhlmann partner, reweight).

Codebook randomness is summarized by symbol counts: grouping the sample
average by symbol turns a K x L double sum into an |X| x |Y| one, so the
estimators scale to the large codebook sizes the rate thresholds demand.
A joint cq state enters as its stack of weighted blocks B_xy, whose traces
are p(x, y); the measure transform weighs each by 1 / (p_x p_y), so no
block is normalised on the way.
"""

from __future__ import annotations

import math
import numpy as np

from . import linalg as la
from . import qobjects as qo

# a row's hypothesis distance may pass its eps by this much, the round-off
# of the stacked trace norm; ``transformed_rows`` gives no row a slack
# below twice it
DISTANCE_SLACK = 1e-9

# ---------------------------------------------------------------------------
# measure-transformed covering estimator


def _joint_tables(joint: qo.CQState):
    """Tables of a cq state over 'x|y' symbols, indexed by first appearance:
    p_x, p_y, the tilted blocks B_xy / (p_x p_y) (0 where p_x p_y is) of
    its weighted blocks B_xy, and their sum sigma."""
    parts = [qo.split_symbol(sym) for sym in joint.symbols]
    xs, ys = (qo._first_seen([p[c] for p in parts]) for c in (0, 1))
    dim = joint.quantum_dim
    pxy = np.zeros((len(xs), len(ys)))
    blocks = np.zeros((len(xs), len(ys), dim, dim), dtype=complex)
    for (x, y), p, block in zip(parts, joint.probs, joint.blocks):
        pxy[xs[x], ys[y]], blocks[xs[x], ys[y]] = p, block
    px, py = pxy.sum(axis=1), pxy.sum(axis=0)
    outer = np.outer(px, py)
    scale = np.divide(1.0, outer, out=np.zeros_like(outer), where=outer > 0)
    return px, py, scale[:, :, None, None] * blocks, blocks.sum(axis=(0, 1))


def _transformed_average(counts_x, counts_y, k, l, tilted) -> np.ndarray:
    weights = np.outer(counts_x, counts_y) / (k * l)
    return np.einsum("xy,xyij->ij", weights, tilted)


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
    px, py, tilted, sigma = _joint_tables(joint)
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
            avg = _transformed_average(cx, cy, 2**lk, 2**ll, tilted)
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


def good_sets(parts, weights, present, spectrum, eps):
    """GOOD sets of every row of ``weights`` over one (n, d, d) stack of states.

    Row r purifies sum_i w_ri parts_i with a slice of C per part that
    ``present[r]`` offers, at slack ``eps[r]``.  The target comes checked
    and decomposed, as ``la.density_eigh``'s (target, eigenvalues,
    eigenvectors) ``spectrum``; the roots, distances and slacks of all rows
    are stacked, and only the Uhlmann partner runs row by row.  Row r
    follows the purification proof literally: psi = sum_i sqrt(w_ri)
    |rho_i>|i>, phi the Uhlmann partner of target's purification in the
    same space, primed states read off the |i> slices, GOOD = INDEX (weight
    ratio within eps^(1/4) of 1) intersect CLOSE (primed state within
    eps^(1/4) of the original).  Returns the GOOD mask (b, n) and the primed states
    (b, n, d, d), zero off GOOD.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any((eps <= 0) | (eps >= 1)):
        raise ValueError("eps must lie in (0, 1)")
    target, wt, vt = spectrum
    parts, weights = la._as_stack(parts), np.asarray(weights, dtype=float)
    (b, n), d = weights.shape, target.shape[0]
    hyp = la.trace_norm_many(np.einsum("rn,nij->rij", weights, parts) - target)
    if np.any(hyp > eps + DISTANCE_SLACK):
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
        phi[r][..., cols] = la.uhlmann_partner(psi[r][..., cols], wt, vt).reshape(d, d, -1)
    # the live parts phi does not vanish on
    q = np.sum(np.abs(phi) ** 2, axis=(1, 2))
    kept = live & (q > la.ZERO_MASS)
    rows, cols = np.nonzero(kept)
    v = phi[rows, :, :, cols]
    rho_p = v @ v.conj().swapaxes(-1, -2) / q[kept][:, None, None]
    ratio = weights[kept] / q[kept]
    dists = la.trace_norm_many(rho_p - ratio[:, None, None] * parts[cols])
    in_good = (np.abs(1.0 - ratio) <= quarter[rows]) & (dists <= quarter[rows])
    good, primed = np.zeros_like(kept), np.zeros((b, n, d, d), dtype=complex)
    good[rows, cols], primed[rows, cols] = in_good, rho_p * in_good[:, None, None]
    return good, primed


def transformed_rows(sigmas, weights, eps):
    """``good_sets``' parts, weights and slacks for subnormalized pieces:
    pieces normalized (I / d of weight 0 at trace <= ``la.ZERO_MASS``), row r's
    weights w_ri Tr[sigma_i] / sum_j w_rj Tr[sigma_j], slacks doubled
    (normalizing the average at most doubles the hypothesis distance),
    at least 2 ``DISTANCE_SLACK`` and at most 0.999."""
    sigmas, weights = la._as_stack(sigmas), np.asarray(weights, dtype=float)
    traces = np.array([float(np.trace(s).real) for s in sigmas])
    tiny = traces <= la.ZERO_MASS
    # each row summed in order, as a sum over its pieces
    z = np.cumsum(weights * traces, axis=1)[:, -1:]
    flat = np.eye(sigmas.shape[-1], dtype=complex) / sigmas.shape[-1]
    parts = np.where(tiny[:, None, None], flat, sigmas / np.where(tiny, 1.0, traces)[:, None, None])
    new_weights = np.where(tiny | (weights <= 0), 0.0, weights * traces / z)
    return parts, new_weights, np.clip(2 * np.asarray(eps, dtype=float), 2 * DISTANCE_SLACK, 0.999)

