"""One-shot entropic quantities: smooth max entropy, hypothesis testing
relative entropy, max relative entropy (plain and smoothed) and smooth max
information; and the asymptotic ones: von Neumann entropy and the Holevo
quantity of a cq state, taken from its blocks.

Conventions: all logarithms are base 2, rates are bits.  The smoothing ball
is the purified-distance ball over normalized states.  The hypothesis
testing quantity is the Neyman-Pearson minimization of the type-II error
at type-I error at most eps; optimal tests threshold ``t rho - sigma`` with
fractional weight on the boundary eigenspace so alpha hits 1 - eps exactly.
A block-diagonal pair is held as (blocks, d, d) stacks, so the threshold
search decomposes every block at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg as la
from . import qobjects as qo
from . import sdp

# the widest certified interval [lower, value] of an I_max^eps, in bits; the
# name outlives the bisection it once bounded because the bench reads it
BISECT_TOL_BITS = 1e-3


class SolverError(RuntimeError):
    """Raised when a smoothing or hypothesis-testing value fails a
    certificate, or its solve gives no positive t; carries residuals.  A
    solve stopping short of convergence raises nothing while both pass."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


def _validate_eps(eps: float) -> float:
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"smoothing parameter {eps} outside [0, 1)")
    return float(eps)


# ---------------------------------------------------------------------------
# smooth max entropy (classical)


def smooth_max_entropy_atoms(atoms: list[tuple[float, float]], eps: float) -> float:
    """Smooth max entropy of weighted atoms by the greedy optimizer of its LP.

    ``atoms`` is a list of (probability, multiplicity); multiplicities let
    callers fold exchangeable symbols (e.g. codebook classes) into one atom.
    The greedy drops the least likely atoms first until eps of mass is
    spent, the last one fractionally, and returns log2 of the kept count.
    """
    eps = _validate_eps(eps)
    order = sorted(range(len(atoms)), key=lambda i: atoms[i][0])
    total_mass = sum(p * m for p, m in atoms)
    if abs(total_mass - 1.0) > la.SUM_SLACK + 2.0 * sdp._gamma(len(atoms) + 1):
        raise ValueError("atom masses must sum to 1")
    kept = [m for _, m in atoms]
    budget = eps
    for i in order:
        p, m = atoms[i]
        if p <= 0:
            kept[i] = 0.0
            continue
        drop = min(m, budget / p)
        kept[i] = m - drop
        budget -= drop * p
        if budget <= la.ZERO_MASS:
            break
    lam_sum = sum(kept)
    if lam_sum <= 0:
        raise ValueError("smoothing removed the whole distribution")
    return math.log2(lam_sum)


def h_max_smooth(p: qo.Distribution, eps: float) -> float:
    """Smooth max entropy of a distribution, in bits: its symbols as atoms
    of multiplicity 1, tied probabilities ordered by symbol name."""
    idx = sorted(range(len(p.alphabet)), key=lambda i: (p.probs[i], p.alphabet[i]))
    return smooth_max_entropy_atoms([(float(p.probs[i]), 1.0) for i in idx], eps)


# ---------------------------------------------------------------------------
# hypothesis testing relative entropy (Neyman-Pearson)


@dataclass
class NPTest:
    """An optimal test, as its (n, d, d) stack of per-block tests in block
    order; the optimal type-II error lies in [``dual_beta``,
    ``achieved_beta``] (``_certified``)."""

    tests: np.ndarray
    achieved_alpha: float
    achieved_beta: float
    dual_beta: float


class _Blocks:
    """Block-diagonal pair (rho, sigma) as ``(n, d, d)`` stacks of subnormalized blocks.

    Every block has one dimension d: ``i_hyp_cq``'s blocks all live on the
    quantum register, and ``d_hyp``'s pair is one block (n = 1).

    alpha_strict(t) = sum_b Tr[{t rho_b - sigma_b > 0} rho_b] is the left
    derivative of the convex map g(t) = sum_b Tr(t rho_b - sigma_b)_+, so
    it is nondecreasing in t, and the Lagrange bound t (1 - eps) - g(t)
    peaks where it crosses 1 - eps.  It jumps only where an eigenvalue of
    t rho_b - sigma_b, growing with t (rho_b >= 0), crosses 0: where
    t rho_b - sigma_b is singular, at t = 1 / mu for mu > 0 in the spectrum of
    sigma_b^(-1/2) (rho_b / K) sigma_b^(-1/2) on supp sigma_b, with
    rho_b / K the Schur complement of rho_b's corner on ker sigma_b
    (rho_b itself when rho_b carries no mass there, as for every block of
    ``i_hyp_cq``, whose sigma_b = p_b rho_S covers each rho_b).  Between
    two jumps it is continuous; for a commuting pair it is constant there.

    ``sigma_mass`` is each sigma block's trace, or its matrix's if it is a slot.
    """

    def __init__(self, rho_blocks, sigma_blocks, sigma_mass=None):
        self.rho = la._as_stack(rho_blocks)
        self.sigma = la._as_stack(sigma_blocks)
        self.sigma_mass = np.einsum("nii->n", self.sigma).real if sigma_mass is None else sigma_mass

    @cached_property
    def sigma_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """One stacked ``eigh`` of sigma: the kernel test's and the jumps'."""
        return np.linalg.eigh(self.sigma)

    def spectra(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of every block's t rho - sigma,
        stacked over the blocks, from one ``eigh``."""
        return np.linalg.eigh(t * self.rho - self.sigma)

    def alpha_strict(self, t: float) -> float:
        d, v = self.spectra(t)
        return float(_weights(v, self.rho)[d > 0.0].sum())

    def jumps(self) -> list[float]:
        """The points t_j where alpha_strict jumps, ascending: 1 / mu for the
        eigenvalues mu > 0 of the pencil sigma_b^(-1/2) (rho_b / K)
        sigma_b^(-1/2) on supp sigma_b (the class docstring), from sigma's
        ``eigh`` and one stacked ``eigvalsh``.  Points within STRADDLE of
        each other, relatively, are one jump, which one ``_straddle``
        covers.
        """
        w, v = self.sigma_eigh
        supp = w > la.SUPPORT_TOL
        inv_sqrt = np.sqrt(np.divide(1.0, w, out=np.zeros_like(w), where=supp))
        rot = v.conj().swapaxes(-1, -2) @ self.rho @ v
        for b in np.flatnonzero(~supp.all(axis=1)):
            k, s = ~supp[b], supp[b]
            corner = rot[b][np.ix_(k, k)]
            if np.abs(corner).max() <= la.SUPPORT_TOL:
                continue
            g = np.linalg.pinv(corner, rcond=la.SUPPORT_TOL, hermitian=True) @ rot[b][np.ix_(k, s)]
            rot[b][np.ix_(s, s)] -= rot[b][np.ix_(s, k)] @ g
        mu = np.linalg.eigvalsh(inv_sqrt[:, :, None] * rot * inv_sqrt[:, None, :])
        live = (mu > 0) & (mu > la.SUPPORT_TOL * mu.max(initial=0.0))
        points = []
        for t in np.sort(1.0 / mu[live]).tolist():
            if not points or t > points[-1] * (1.0 + STRADDLE):
                points.append(t)
        return points


def _weights(v: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Real diagonals of v_b^dag M_b v_b, one row per block."""
    return np.real(np.einsum("nij,njk,nki->ni", v.conj().swapaxes(-1, -2), mats, v))


# the relative half width of ``_straddle``, and the relative width of the
# bracket whose secant root the search straddles
STRADDLE = 2.0**-44
CLOSE = 2.0**-30
# tolerance of an NP test's primal residuals and interval width in bits (``_certified``)
NP_TOL = 1e-12
# the least bracket width the border |d| <= gap of ``_np_threshold`` is
# taken at, so that a bracket closed to a point still holds the round-off
# of the eigenvalues d
BORDER_FLOOR = 1e-15


class _Readings:
    """The readings alpha_strict(t) of one threshold search.

    ``read`` keeps every reading, so a point read twice costs one ``eigh``.
    ``below`` and ``above`` are the tightest points read on either side of
    the target, which steer the search.
    """

    def __init__(self, blocks: _Blocks, target: float):
        self.blocks, self.target = blocks, target
        self.alpha: dict[float, float] = {}

    def read(self, t: float) -> float:
        if t not in self.alpha:
            self.alpha[t] = self.blocks.alpha_strict(t)
        return self.alpha[t]

    def below(self) -> float:
        return max((t for t, a in self.alpha.items() if a < self.target), default=0.0)

    def above(self) -> float:
        return min((t for t, a in self.alpha.items() if a >= self.target), default=math.inf)


def _straddle(rd: _Readings, t: float) -> tuple[float, float] | None:
    """[t - h, t + h] with h = STRADDLE t when its ends straddle the target
    (t - h reads below it, and t + h at or above it); else None.  An end
    beyond the tightest reading on its side reads as that one does, since
    alpha_strict is nondecreasing, and is not read."""
    a, b = t - STRADDLE * t, t + STRADDLE * t
    below = a <= rd.below() or rd.read(a) < rd.target
    if below and (b >= rd.above() or rd.read(b) >= rd.target):
        return a, b
    return None


def _np_bisect(blocks: _Blocks, target: float) -> tuple[float, float]:
    """Bracket [t_lo, t_hi] of the least t with alpha_strict(t) >= target,
    in three steps.

    - A bisection over the points between alpha_strict's jumps
      (``_Blocks.jumps``; the geometric means of neighbours, half the
      first, twice the last) finds the least that reads at or above the
      target.  The crossing is then at the jump just below it, or in a
      continuous stretch beside that jump, and ``_straddle`` tries the jump.
    - Otherwise regula falsi runs between the tightest readings (times 4
      from the last one until one reads at or above the target),
      safeguarded twice: the Illinois rule halves the stale end's value
      when one end moves twice running, and a third move of the same end
      takes the geometric mean.  Once the readings are within CLOSE of
      each other, relatively, ``_straddle`` tries their secant root, once.
    - With no jumps, or after failed straddles, the same loop shrinks the
      tightest readings to 4 ulps and returns them, in order should
      round-off have read them out of order.

    A straddle is never widened.  The test is taken at the bracket's
    middle, and where alpha_strict steps (at a jump, or at one that
    ``jumps`` placed off by more than h), a middle d off the step leaves
    the Lagrange bound first order in d below beta; the loop, which
    brackets the step itself, costs a few readings more.  The test taken
    in the bracket is certified on its own (``_certified``), so the
    bracket need only hold the threshold.  SolverError when no reading up
    to 4^200 reaches the target.
    """
    rd = _Readings(blocks, target)
    points = blocks.jumps()
    if points:
        between = [math.sqrt(a * b) for a, b in zip(points, points[1:])]
        probes = [points[0] / 2.0, *between, points[-1] * 2.0]
        lo, hi = -1, len(probes)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if rd.read(probes[mid]) >= target:
                hi = mid
            else:
                lo = mid
        if 1 <= hi <= len(points) and (bracket := _straddle(rd, points[hi - 1])):
            return bracket
    for _ in range(200):
        if not math.isinf(rd.above()):
            break
        rd.read(4.0 * rd.below() if rd.below() > 0.0 else 1.0)
    if math.isinf(rd.above()):
        raise SolverError(f"alpha_strict stays below {target} up to t = {rd.below()}")
    side, straddled = 0, False
    for _ in range(200):
        low, high = rd.below(), rd.above()
        if not high - low > 4.0 * math.ulp(high):
            break
        g_low, g_high = rd.alpha.get(low, 0.0) - target, rd.alpha[high] - target
        if not straddled and high - low <= CLOSE * high:
            straddled, side = True, 0
            if bracket := _straddle(rd, low - g_low * (high - low) / (g_high - g_low)):
                return bracket
            continue
        g_low, g_high = g_low / (2.0 if side == 2 else 1.0), g_high / (2.0 if side == -2 else 1.0)
        t = high - g_high * (high - low) / (g_high - g_low)
        if abs(side) >= 3:
            t = math.sqrt(low * high) if low > 0.0 else high / 4.0
        if g_high == 0.0:
            t = max(high * (1.0 - CLOSE / 2.0), (low + high) / 2.0)
        if not low < t < high:
            t = (low + high) / 2.0
        if not low < t < high:
            break
        side = max(side, 0) + 1 if rd.read(t) >= target else min(side, 0) - 1
    low, high = rd.below(), rd.above()
    return min(low, high), max(low, high)


def _np_threshold(blocks: _Blocks, eps: float) -> tuple[np.ndarray, float, float, float]:
    """Optimal NP test: (per-block tests, alpha, beta, dual), with dual a
    lower bound on the optimal beta (``_certified``).

    The test is taken from one stacked ``eigh`` of t rho - sigma at the
    middle t of ``_np_bisect``'s bracket, a jump t_j or a secant root (at
    the top, alpha would overshoot 1 - eps on a continuous stretch by its
    slope times the bracket's width).  Its eigenvalues d give {d > gap}
    plus the weight on the border |d| <= gap that brings alpha to 1 - eps,
    and the dual t (1 - eps) - sum max(d, 0).

    Two exits take no search.  When rho's mass on ker sigma reaches
    1 - eps, the test is the projector onto ker sigma, with beta = 0 and
    the dual at t = 0.  At eps = 0 it is rho's support projector Pi,
    optimal there (T <= I with Tr T rho = 1 is I on supp rho), and its
    dual is its beta, which the Lagrange bound reaches only as t grows
    without end.  Pi keeps the eigenvalues of rho's own ``eigh`` above
    NP_TOL over their count, so the mass it drops stays within NP_TOL.
    """
    target = 1.0 - eps
    # beta = 0 reachable: test supported on ker(sigma)
    w, v = blocks.sigma_eigh
    ker = v * (np.abs(w) <= la.SUPPORT_TOL)[:, None, :]
    tests = ker @ ker.conj().swapaxes(-1, -2)
    alpha = float(np.einsum("nij,nji->", tests, blocks.rho).real)
    if alpha >= target - NP_TOL:
        return tests, alpha, 0.0, 0.0

    if eps == 0.0:
        w, v = np.linalg.eigh(blocks.rho)
        supp = v * (w > NP_TOL / w.size)[:, None, :]
        tests = supp @ supp.conj().swapaxes(-1, -2)
        alpha, beta = (
            float(np.einsum("nij,nji->", tests, m).real) for m in (blocks.rho, blocks.sigma)
        )
        return tests, alpha, beta, beta

    t_lo, t_hi = _np_bisect(blocks, target)
    t = (t_lo + t_hi) / 2.0
    gap = max(t_hi - t_lo, BORDER_FLOOR) * (2.0 + sum(blocks.sigma_mass.tolist()))
    d, v = blocks.spectra(t)
    w_r, w_s = _weights(v, blocks.rho), _weights(v, blocks.sigma)
    take, border = d > gap, np.abs(d) <= gap
    kernel_w = float(w_r[border].sum())
    short = target - float(w_r[take].sum())
    c = min(max(short / kernel_w, 0.0), 1.0) if kernel_w > la.ZERO_MASS else 0.0
    weights = take + c * border
    tests = (v * weights[:, None, :]) @ v.conj().swapaxes(-1, -2)
    alpha, beta = (sum((w * weights).sum(axis=1).tolist()) for w in (w_r, w_s))
    return tests, alpha, beta, t * target - float(np.maximum(d, 0.0).sum())


def _certified(blocks: _Blocks, test: NPTest, eps: float) -> float:
    """-log2 of ``test``'s beta once its checks pass; else SolverError
    with both ends and the residuals.

    Primal: the tests T_b of ``test.tests``, on their own, have
    eigenvalues in [0, 1], and sum_b Tr T_b rho_b >= 1 - eps and
    sum_b Tr T_b sigma_b are the test's alpha and beta.  Dual: weak duality gives the optimal
    beta* >= mu (1 - eps) - sum_b Tr(mu rho_b - sigma_b)_+ at every
    mu >= 0 (Wang and Renner, arXiv:1007.5456), as ``dual_beta`` is.  So
    I_H^eps lies in [-log2 beta, -log2 dual_beta].  Each residual, and the
    interval's width in bits either way round, must be at most NP_TOL.
    """
    ends = np.linalg.eigvalsh(test.tests)
    alpha, beta = (
        float(np.einsum("nij,nji->", test.tests, m).real) for m in (blocks.rho, blocks.sigma)
    )
    value, upper = (
        -math.log2(b) if b > 0.0 else math.inf for b in (test.achieved_beta, test.dual_beta)
    )
    residuals = {
        "range": float(max(-ends.min(), ends.max() - 1.0)),
        "alpha": max(abs(alpha - test.achieved_alpha), 1.0 - eps - test.achieved_alpha),
        "beta": abs(beta - test.achieved_beta),
        "width": 0.0 if value == upper else abs(upper - value),
    }
    if not max(residuals.values()) <= NP_TOL:
        raise SolverError(f"I_H^eps in [{value}, {upper}] not certified", residuals)
    return value


def _np_test(rho_blocks, sigma_blocks, eps: float, sigma_mass=None) -> tuple[float, NPTest]:
    """The certified Neyman-Pearson value and test of a block-diagonal
    pair; ``sigma_mass`` is ``_Blocks``'."""
    blocks, eps = _Blocks(rho_blocks, sigma_blocks, sigma_mass), _validate_eps(eps)
    test = NPTest(*_np_threshold(blocks, eps))
    return _certified(blocks, test, eps), test


def d_hyp(rho, sigma, eps: float) -> tuple[float, NPTest]:
    """Smooth hypothesis testing relative entropy with its optimal test."""
    rho = la.assert_density(rho)
    sigma = la.assert_psd(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    return _np_test([rho], [sigma], eps)


def i_hyp_cq(cq: qo.CQState, eps: float, slots=None) -> tuple[float, NPTest]:
    """Hypothesis-testing mutual information of a cq state.

    The optimal test is block diagonal over the classical register; its
    components 0 <= Pi_x <= I, stacked in symbol order, are exposed for
    sequential decoders.

    With ``slots``, the register is a direct sum and symbol j's block lives
    on slot ``slots[j]``; t rho_x - sigma_x is negative semidefinite off x's
    slot, so x's test is taken there, with sigma's whole-register mass.
    """
    weights = cq.classical_distribution().probs
    at = np.zeros(len(weights), dtype=int) if slots is None else slots
    avg = np.zeros((max(at) + 1,) + cq.blocks.shape[1:], dtype=complex)
    np.add.at(avg, at, cq.blocks)
    mass = None if slots is None else weights * float(np.einsum("kii->", avg).real)
    sigma = weights[:, None, None] * avg[at]
    return _np_test(cq.blocks, sigma, eps, mass)


# ---------------------------------------------------------------------------
# max relative entropy and smoothed variants


def d_max(rho, sigma) -> float:
    """log2 of the least c with rho <= c sigma; +inf outside the support.
    One checked ``eigh`` of sigma gives its support and its inverse root."""
    rho = la.assert_psd(rho)
    sigma = la.assert_hermitian(sigma)
    w, v = np.linalg.eigh(sigma)
    la._check_psd(w[0])
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    proj = la._support(w, v)
    leak = float(np.trace((np.eye(len(rho)) - proj) @ rho).real)
    if leak > la.SUM_SLACK:
        return math.inf
    isq = la._pinv_root(w, v)
    pencil = isq @ rho @ isq
    top = float(np.linalg.eigvalsh((pencil + pencil.conj().T) / 2)[-1])
    if top <= 0.0:
        return -math.inf
    return math.log2(top)


def _support_components(mats: list[np.ndarray]) -> np.ndarray:
    """Per member k of the (n, d, d) stacks ``mats``, the connected
    components of the union support pattern |M[k]_ij| > ``la.SUPPORT_TOL`` (made
    symmetric), as (n, d) labels: each index labelled by the least index
    of its component.

    Label propagation on the boolean patterns, every member at once: every
    index starts with its own label and takes the least label among itself
    and its neighbours until no label moves.
    """
    mask = np.abs(mats[0]) > la.SUPPORT_TOL
    for m in mats[1:]:
        mask |= np.abs(m) > la.SUPPORT_TOL
    mask |= mask.swapaxes(-1, -2)
    labels = np.broadcast_to(np.arange(mask.shape[-1]), mask.shape[:-1])
    while True:
        moved = np.where(mask, labels[:, None, :], labels[:, :, None]).min(axis=-1)
        if (moved == labels).all():
            return labels
        labels = moved


def _by_size(labels: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The components of ``_support_components``' labels, one entry per
    size s: their ids k d + least index (ascending), their members k and
    their (m, s) sorted index arrays, for the ``at`` of ``_ball_blocks``."""
    n, d = labels.shape
    key = (np.arange(n)[:, None] * d + labels).ravel()
    ids = np.flatnonzero(key == np.arange(n * d))
    sizes = np.bincount(key, minlength=n * d)[ids]
    order, starts = np.argsort(key, kind="stable"), np.cumsum(sizes) - sizes
    picks = [(s, sizes == s) for s in np.flatnonzero(np.bincount(sizes)).tolist()]
    return [(ids[p], ids[p] // d, order[starts[p][:, None] + np.arange(s)] % d) for s, p in picks]


def _real_parts(*mats) -> tuple[np.ndarray, ...]:
    """The matrices as real ones when every imaginary part is within
    ``la.REAL_TOL``; else all as complex matrices, unchanged.

    A real pair gives real rotations (from a real ``eigh``), and real
    sub-blocks of sigma give real smoothing programs, solved over the real
    symmetric matrices with the value and the certificates of the
    Hermitian programs (the conjugation argument of the ``sdp`` docstring).
    """
    if all(np.max(np.abs(m.imag), initial=0.0) <= la.REAL_TOL for m in mats if m.dtype.kind == "c"):
        return tuple(np.real(m) for m in mats)
    return tuple(np.asarray(m, dtype=complex) for m in mats)


def _ball_blocks(pairs) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """The sub-blocks that carry rho of the direct sum (+)_k (rho_k, sigma_k)
    of ``pairs``, all of one dimension d (a cq state's blocks), cut to
    supp(sigma) and each in the eigenbasis of its cut rho, as the stacks of
    an ``sdp.Ball`` (its spectra (n, r) and its sigma_b (n, d, d) per group
    of one (r, d, field)), and s0 = sum_b Tr sigma_b over the rho-free
    ones.  Every sigma_b is positive definite.

    Array passes over all the pairs at once, with no loop over components.
    The pairs are stacked, and the field is decided once for all of them
    (``_real_parts``).  Two passes:

    - The cut and the rotation, in one loop over component sizes.  Each
      component c of a pair's joint support pattern of (rho_k, sigma_k)
      (labels from ``_support_components``, grouped by size by
      ``_by_size``) is taken to the eigenbasis V_c of sigma_c, from one
      stacked ``eigh`` per component size across all the pairs, its
      columns in descending eigenvalue order: rho_c becomes
      V_c^H rho_c V_c and sigma_c its spectrum w.  Eigenvalues at most
      ``la.SUPPORT_TOL`` are set to 0 and their columns of V_c zeroed, so
      the cut rho_c has an exact zero row and column on each direction of
      ker(sigma_c).  The loop also takes one stacked ``eigvalsh`` of rho_c
      per size: its least eigenvalue, which is each rho_k's (up to the
      entries below ``la.SUPPORT_TOL`` that the pattern drops), and
      sigma's get ``la.assert_psd``'s check.  It reads rho_k's own
      spectrum, since the cut drops a negative part on ker(sigma);
      ``_cq_pairs`` takes no spectrum of its own.  Then the cut rho_c is
      rotated into its eigenbasis: U_c from one stacked ``eigh`` per size,
      its columns in descending eigenvalue order, and
      sigma'_c = U_c^H diag(w) U_c.  A kernel direction needs no pass of
      its own.  LAPACK's tridiagonal reduction leaves a zero row and column
      alone and its eigensolver splits there, so ``eigh`` returns the
      direction as a unit vector of eigenvalue 0; sigma'_c vanishes on it,
      and the split keeps it as a rho-free sub-block alone, of trace 0.
      On the rest, supp(sigma_c), sigma'_c is positive definite.
      ``TestBallBlocksReference`` checks this against a reference that
      rotates each part on supp(sigma_c) alone.
    - The split.  Each rotated component is split again by the pattern of
      sigma', with the same ``la.SUPPORT_TOL`` mask, whose components lie
      inside the rotated ones, and the sub-blocks of each size are cut out
      as one stack.  A sub-block's rank r counts its kept eigenvalues
      (above ``la.SUPPORT_TOL``), which come first, in descending order,
      before its kernel directions; its sigma_b is a principal block of
      sigma'_c on supp(sigma_c), so positive definite, and it is real
      when its imaginary parts are within ``la.REAL_TOL`` (tested over
      each stack at once).  Each
      size's stack is split by (r, field) into the groups, and a sub-block
      with r = 0 is rho-free and adds Tr sigma_b to s0 (0 on a kernel
      direction).  Sub-blocks are ranked pair by pair, and within a pair
      by their least index, so the sub-blocks of two components may
      interleave: each group keeps that order, the groups come in the
      order of their first sub-block (group-major), and s0 adds its traces
      one by one in that order.

    The two passes, the fold of the rho-free sub-blocks into one scalar
    and the pose of each fidelity on supp(rho_b) that ``sdp`` makes are
    exact, so the ball's least t is 2^(D_max^eps) of the pairs; this is
    the one place the argument is written.  Smooth entropies are invariant
    under isometries and split over direct sums (Tomamichel,
    arXiv:1504.00233), so the pairs are one program, and it may be posed
    in any orthonormal basis of each component.  The cap
    t sigma - rho' PSD forces supp(rho') within supp(sigma), the range of
    a projector Pi, and for such rho', sqrt(rho') = sqrt(rho') Pi, so
    F(rho, rho') = Tr sqrt(sqrt(rho') rho sqrt(rho')) = F(Pi rho Pi, rho'):
    the program is the one of (Pi rho Pi, sigma), posed on supp(sigma),
    where sigma is positive definite.  rho's mass off supp(sigma) is
    dropped with it, so sum_b Tr Lambda_b = Tr Pi rho Pi can be below 1
    (``_short``).  In the basis (+)_c U_c the cut rho is diagonal, and
    sigma is (+)_c sigma'_c.  The pinching P onto the sub-blocks fixes
    both, and it maps a feasible rho' to a feasible one: P(rho') is a
    density, the cap passes to P(rho') <= t P(sigma') = t sigma', and
    F(rho, P(rho')) = F(P(rho), P(rho')) >= F(rho, rho') by data
    processing.  So an optimum can be taken block diagonal (the program's
    symmetry under the phases e^(i theta_b) on each sub-block, averaged
    into P; Gatermann and Parrilo, arXiv:math/0211450), and for one the
    fidelity is the sum of the sub-blocks' fidelities.  The same argument
    splits the pairs and each pair into its support components.  The
    rho-free sub-blocks fold into one scalar w, with w >= 0 and
    t s0 - w >= 0: on such a sub-block rho'_b enters only through
    Tr rho'_b, and 0 <= rho'_b <= t sigma_b lets that trace take every
    value in [0, t Tr sigma_b]; so at every fixed t the program is
    feasible exactly when its per-block form is (w = sum_b Tr rho'_b one
    way, rho'_b = (w / s0) sigma_b the other).  When s0 is 0 (every
    rho-free sub-block has sigma_b = 0, so each rho'_b is 0) there is no
    w.  Within a sub-block the fidelity sees rho'_b on supp(rho_b) alone:
    rho_b = Lambda_b (+) 0 in its eigenbasis, so
    sqrt(rho_b) rho'_b sqrt(rho_b) = sqrt(Lambda_b) rho'_b,rr sqrt(Lambda_b) (+) 0,
    with rho'_b,rr the leading r x r block, and
    F(rho_b, rho'_b) = F(Lambda_b, rho'_b,rr) (Tomamichel,
    arXiv:1504.00233); so ``sdp`` poses a sub-block's Watrous block on 2r
    directions and asks only rho'_b PSD of the rest.
    With a degenerate spectrum of sigma_c or of the cut rho_c, ``eigh``
    picks one basis of the eigenspace among many, and sigma' in that
    basis may join indices that another basis would separate: the split
    can only be missed, never wrong, since every split it finds is a block
    structure of both the cut rho and sigma' in a basis that diagonalises
    the cut rho.
    """
    rho, sigma = _real_parts(*(np.stack(mats) for mats in zip(*pairs)))
    # each component cut to its sigma_c's eigenbasis, the kernel's columns
    # zeroed, then rotated into its cut rho's eigenbasis, both in
    # descending eigenvalue order, with sigma_c's spectrum w taken there
    eigs, rotated, least = np.zeros(rho.shape[:2]), np.zeros_like(sigma), []
    for _, k, ix in _by_size(_support_components([rho, sigma])):
        at = k[:, None, None], ix[:, :, None], ix[:, None, :]
        w, v = np.linalg.eigh(sigma[at])
        block = rho[at]
        least += [np.linalg.eigvalsh(block)[:, 0].min(), w[:, 0].min()]
        w, v = np.where(w > la.SUPPORT_TOL, w, 0.0)[:, ::-1], v[..., ::-1]
        v = v * (w > 0.0)[:, None, :]
        lam, u = np.linalg.eigh(np.swapaxes(v.conj(), -1, -2) @ block @ v)
        u = u[..., ::-1]
        eigs[k[:, None], ix] = lam[:, ::-1]
        rotated[at] = (np.swapaxes(u.conj(), -1, -2) * w[:, None, :]) @ u
    la._check_psd(float(min(least)))
    groups, free_ids, free_traces = [], [np.zeros(0, dtype=int)], [np.zeros(0)]
    for ids, k, ix in _by_size(_support_components([rotated])):
        eig, sb = eigs[k[:, None], ix], rotated[k[:, None, None], ix[:, :, None], ix[:, None, :]]
        rank = np.count_nonzero(eig > la.SUPPORT_TOL, axis=1)
        real = np.abs(sb.imag).max(axis=(1, 2)) <= la.REAL_TOL
        free = rank == 0
        free_ids.append(ids[free])
        free_traces.append(np.trace(sb[free], axis1=1, axis2=2).real)
        key = 2 * rank + real
        for group in np.flatnonzero(np.bincount(key[~free])).tolist():
            pick = key == group
            r, stack = group // 2, sb[pick]
            groups.append((ids[pick][0], eig[pick, :r], stack.real if group % 2 else stack))
    groups.sort(key=lambda group: group[0])
    # s0 adds the traces in order of least index, one at a time
    traces = np.concatenate(free_traces)[np.argsort(np.concatenate(free_ids))]
    free_mass = float(np.cumsum(traces)[-1]) if len(traces) else 0.0
    return [eig for _, eig, _ in groups], [sb for _, _, sb in groups], free_mass


def d_max_smooth(rho, sigma, eps: float) -> float:
    """Smoothed max relative entropy over the purified-distance ball; +inf
    when too little of rho's mass lies on supp(sigma) (``_short``), as
    ``d_max`` is outside the support.

    The least t of the capped ball (``sdp.Ball``) of the sub-blocks of the
    one pair (rho, sigma) gives v = log2 t, and v is returned only with a
    certified interval [log2 t_low, v] at most BISECT_TOL_BITS wide:

    - the upper end: the point passes ``sdp.recheck``'s checks at t = 2^v;
    - the lower end: the dual, read as it is, allows no t below t_low by
      weak duality (``sdp.lower_bound``: its dual objective less its
      residual times X = sqrt(1 + 2 sum_b Tr Lambda_b), which bounds every
      feasible point's free reals, and less its blocks' negative parts
      times bounds on their primal blocks' traces).

    So the value lies in [log2 t_low, v], up to the recheck's tolerance at
    the upper end: v is the t of a point feasible within
    ``sdp.FEASIBLE_TOL``, not exactly, and can sit below the least t (by
    up to 2.7e-7 bits against Watrous's (r + d) pose's lower end, seen on
    random rank-deficient balls).  The program is the cut, split and
    folded one the ``sdp`` docstring poses: per sub-block that carries
    rho, the Watrous block G_b = [[Lambda_b, Z_b], [Z_b^H, rho'_b,rr]] PSD
    on supp(rho_b) alone, with rho_b's spectrum Lambda_b as data and
    rho'_b,rr the leading r_b x r_b block of rho'_b, rho'_b PSD when
    r_b < d_b, the cap t sigma_b - rho'_b PSD (a scalar row when d_b = 1),
    sigma_b positive definite, sum_b Re Tr Z_b >= sqrt(1 - eps^2), and
    the trace of rho', sum_b Tr rho'_b + w, equal to 1.  Both ends bound
    D_max^eps itself, since four steps that leave the value alone turn the
    pair into that program (the argument is in ``_ball_blocks``):

    - Cut: each support component is posed on supp(sigma_c), in its
      sigma_c's eigenbasis, where every sigma_b is positive definite and
      the cap has an interior.  The fidelity there is at most
      sqrt(Tr Pi rho Pi), Pi the projector onto supp(sigma), so a value
      whose sum_b Tr Lambda_b, with its round-off bound, is below
      1 - eps^2 has no feasible point and is +inf, with no solve
      (``_short``).
    - Split: each cut component is posed in the eigenbasis of its cut
      rho_c, in the cut's own pass, and split again by the pattern of its
      rotated sigma'_c, in which each direction of ker(sigma_c) is a
      rho-free sub-block alone, of trace 0.  A degenerate spectrum can
      only hide a split, never make a wrong one.
    - Fold: the rho-free sub-blocks are one scalar w, with w >= 0 and
      t s0 - w >= 0, s0 = sum_b Tr sigma_b over them; when s0 is 0 there
      is no w.
    - Support: Watrous's block of each sub-block's fidelity is posed on
      supp(rho_b) only, with rho'_b PSD asked of the rest.

    Two solves, one certificate: one solve and one certificate per
    distinct value, keyed by bytes (``_d_max_smooth_many``).  A classical
    value, whose ball is one real group of 1x1 sub-blocks (a commuting
    pair, split; each sigma_b > 0 by the cut), goes to no solver: it is a
    water-filling over (lambda_b, sigma_b, s0), whose least t
    ``_water_fill`` solves exactly, with the point and the KKT multipliers
    as a ``sdp.BallSolve`` on that group.  Every other value is solved by
    ``sdp.minimize_balls``.  Every solve, of either kind, is certified by
    ``_certified_value`` in block form: the recheck of the point's own
    blocks (the solve's own, when 2^v is its t) and the lower end of its
    dual.  The solve's status decides nothing: SolverError, naming both
    ends, the status and the iterations, is raised only when the point
    fails its recheck, the interval is wider than BISECT_TOL_BITS, or t is
    not positive.

    The sub-blocks are found and their spectra taken once
    (``_ball_blocks``), stacked by (r, d, field) in the group-major order
    the ball, its solve's layout and the certificate read.  The pair is
    taken as ``_real_parts`` gives it:
    real parts when both imaginary parts are within ``la.REAL_TOL``
    (round-off), and so is each rotated sigma_b.  A real sub-block, as on
    every bundled instance, on every component that commutes whatever its
    phases and on every cut component of dimension 2 (whose phases the
    diagonal sigma ignores), is solved and certified over real symmetric
    matrices.

    This is the one-pair value of ``_d_max_smooth_many``, whose value of
    several pairs, as ``i_max_cq_many`` gives a cq state, is that of their
    direct sum: one ``_ball_blocks`` of all of them, ranked pair by pair.
    """
    eps = _validate_eps(eps)
    return _d_max_smooth_many([[(la.assert_density(rho), la.assert_psd(sigma))]], eps)[0]


def _d_max_smooth_many(values: list[list[tuple]], eps: float) -> list[float]:
    """D_max^eps of the direct sum of each value's pairs (rho_k, sigma_k),
    checked already (every matrix Hermitian as ``la._hermitian_part``
    returns it, the rho_k together a density, which ``_ball_blocks``
    checks for PSD on its spectra), at a checked eps: a value with too
    little mass on supp(sigma) (``_short``) is +inf with no solve, a
    classical value (one real group of 1x1 sub-blocks) is solved in closed
    form (``_water_fill``), the others by one ``sdp.minimize_balls`` over
    their capped balls, then each value's solve is certified in order by
    ``_certified_value``; the first value that fails raises its
    SolverError.  At eps 0 a value is the max of ``d_max`` over its
    pairs.

    One solve and one certificate per distinct value, keyed by bytes: a
    value is keyed on its pairs' (shape, dtype, bytes) of rho_k and
    sigma_k, and a repeat of a key (the X and Y cells of a region whose
    outcomes pair x with y hand over the same registers) gets its first
    occurrence's float, with no ball of its own.  Equal bytes give the
    same solve, so every value is the one it would be alone; results stay
    in value order, and the first value that fails is the first
    occurrence of its key."""
    keys = [
        tuple((m.shape, m.dtype.str, m.tobytes()) for pair in pairs for m in pair)
        for pairs in values
    ]
    distinct = {}
    for key, pairs in zip(keys, values):
        distinct.setdefault(key, pairs)
    if eps == 0.0:
        found = [max(d_max(rho, sigma) for rho, sigma in pairs) for pairs in distinct.values()]
    else:
        fidelity = math.sqrt(max(0.0, 1.0 - eps * eps))
        balls = [sdp.Ball(*_ball_blocks(pairs), fidelity) for pairs in distinct.values()]
        short = [_short(ball, pairs) for ball, pairs in zip(balls, distinct.values())]
        classical = [[group[:3] for group in sdp._groups(ball)] == [(1, 1, True)] for ball in balls]
        solved = iter(
            sdp.minimize_balls([b for b, c, s in zip(balls, classical, short) if not (c or s)])
        )
        found = [
            math.inf if s else _certified_value(ball, _water_fill(ball) if c else next(solved))
            for ball, c, s in zip(balls, classical, short)
        ]
    by_key = dict(zip(distinct, found))
    return [by_key[key] for key in keys]


def _short(ball: sdp.Ball, pairs) -> bool:
    """Whether no rho' of the ball reaches its fidelity c, as the cut poses
    it: F(Pi rho Pi, rho') <= sqrt(Tr Pi rho Pi) for a density rho' (Pi
    the projector onto supp(sigma)), so a value whose sum_b Tr Lambda_b is
    below c^2 has no feasible point.  The sum is taken with its round-off
    bound: per direction of the pairs (n of dimension d), ``la.SUPPORT_TOL``
    for an eigenvalue dropped below the cut-off and gamma_(d^2) for the
    error of each of the cut's and the rotation's eigensolvers on a block
    of norm at most 1 (``sdp._deficit``'s bound).  A ball with no sub-block
    that carries rho has no fidelity row at all."""
    n, d = len(pairs), len(pairs[0][0])
    mass = sum(float(eigs.sum()) for eigs in ball.eigs)
    bound = n * d * (la.SUPPORT_TOL + 2.0 * sdp._gamma(d * d))
    return not ball.eigs or mass + bound < ball.fidelity * ball.fidelity


def _water_fill(ball: sdp.Ball) -> sdp.BallSolve:
    """The capped ball's min t solve in closed form, for a classical
    value: ``ball`` is one real group of 1x1 sub-blocks, rho_b = lambda_b
    and sigma_b > 0 (``_ball_blocks``' cut leaves no other), and s0 its
    free mass (0 unless positive).  sum_b lambda_b, rho's mass on
    supp(sigma), may be below 1 but is at least c^2 (``_short``), so F
    below reaches c.  Nothing is
    solved; the result is a ``sdp.BallSolve`` with status "closedForm",
    0 iterations and ``sdp.recheck``'s residuals of its point.

    G_b is PSD exactly when x_b = rho'_b >= 0 and its corner
    Z_b^2 <= lambda_b x_b, so at a fixed t the best fidelity is
    F(t) = max sum_b sqrt(lambda_b x_b) over x_b <= t sigma_b and
    sum_b x_b <= 1, and w <= t s0 takes the rest of the trace exactly when
    t >= t_min = 1 / (sum_b sigma_b + s0).  F is a water-filling (the
    classical case of Tomamichel, arXiv:1504.00233): x_b = min(t sigma_b,
    lambda_b / (4 mu^2)), mu the trace's multiplier, so the capped
    sub-blocks are a prefix of the order of lambda_b / sigma_b,
    descending, and they uncap one by one as t grows.  On the segment of t
    where the first k are capped, with A = sum sqrt(lambda_b sigma_b) and
    S = sum sigma_b over them and L = sum lambda_b over the others,
    F(t) = A sqrt(t) + sqrt(L (1 - S t)), so F(t) = c = sqrt(1 - eps^2) is
    a quadratic in sqrt(t), and since F grows with t its crossing is the
    smaller root.  So t* = max(t_min, the crossing), exactly, with no
    bisection; at t_min every sub-block is capped.

    The point is G_b = [[lambda_b, z_b], [z_b, x_b]], z_b =
    sqrt(lambda_b x_b), w = 1 - sum_b x_b, at t = t_cap >= t*
    (``_t_star_cap``), handed back at 2^(log2 t_cap) (``sdp._logged``).
    The dual holds the water-filling's multipliers at t_d = t*^2 / t_cap,
    t* mirrored below t* by t_cap's rise over it: W_b = v_b v_b^T,
    v_b = (1 / (2 sqrt(kappa_b)), -sqrt(kappa_b)),
    kappa_b = max(mu, sqrt(lambda_b / (t_d sigma_b)) / 2), 1 on the
    fidelity row, mu on w >= 0, kappa_b - mu on each cap and 0 on w's cap.
    They are stationary with -mu on the trace row, which is the
    least-squares multiplier ``sdp.lower_bound`` takes, up to round-off; so
    it reads the tangent bound t_d + (c - F(t_d)) / held from them,
    held = sum_b (kappa_b - mu) sigma_b.  t_d is t* up to round-off, except
    below an ill-conditioned crossing (``_t_star_cap``'s fallback), where F
    is flat at t* and held would be 0.  When t* = t_min the fidelity row is
    slack, and the bound is the normalisation's: 1 on every cap and on w's
    cap, 0 elsewhere (1 on the trace row), which gives
    t_low = 1 / (sum_b sigma_b + s0).
    """
    c, lam, sig = ball.fidelity, ball.eigs[0].ravel(), ball.sigma[0].ravel()
    free_mass = max(ball.free_mass, 0.0)
    s_all = float(sig.sum()) + free_mass
    order = np.argsort(-lam / sig, kind="stable")
    lam_o, sig_o, n = lam[order], sig[order], len(lam)
    # per k = 0 .. n, with the first k of ``order`` capped: S, A and L
    cap_s = np.concatenate(([0.0], np.cumsum(sig_o)))
    cap_a = np.concatenate(([0.0], np.cumsum(np.sqrt(lam_o * sig_o))))
    rest_l = np.concatenate((np.cumsum(lam_o[::-1])[::-1], [0.0]))
    # the top of segment k = 1 .. n, where its k-th sub-block uncaps, and F there
    ratio = lam_o / sig_o
    top = ratio / (rest_l[1:] + ratio * cap_s[1:])
    f_top = np.sqrt(top) * cap_a[1:]
    f_top += np.sqrt(np.clip(rest_l[1:] * (1.0 - top * cap_s[1:]), 0.0, None))
    k = max(int(np.sum(f_top >= c)), 1)
    a, s, rest = cap_a[k], cap_s[k], rest_l[k]
    root = (c * c - rest) / (c * a + math.sqrt(max(rest * (a * a + s * (rest - c * c)), 0.0)))
    t_star = max(1.0 / s_all, root * root)
    t_cap = max(t_star, _t_star_cap((root, a, s, rest), c, sig, free_mass))
    bound = t_star > root * root  # by the normalisation: every sub-block is capped at t_min
    if bound:
        k = n

    x = np.empty(n)
    share = (1.0 - t_star * cap_s[k]) / rest_l[k] if k < n else 0.0
    x[order] = np.concatenate((t_star * sig_o[:k], share * lam_o[k:]))
    if bound:
        v, fid, floor, caps, free_cap = np.zeros((n, 2)), 0.0, 0.0, np.ones(n), 1.0
    else:
        t_d = t_star * t_star / t_cap
        k = int(np.sum(top > t_d))
        mu = 0.5 * math.sqrt(rest_l[k] / (1.0 - t_d * cap_s[k])) if k < n else 0.0
        kappa = np.maximum(mu, 0.5 * np.sqrt(lam / (t_d * sig)))
        v = np.stack((0.5 / np.sqrt(kappa), -np.sqrt(kappa)), axis=1)
        fid, floor, caps, free_cap = 1.0, mu, kappa - mu, 0.0
    w = 1.0 - x.sum() if free_mass > 0.0 else 0.0
    z_b, rho_b = [np.sqrt(lam * x)[:, None, None]], [x[:, None, None]]
    point = sdp.BallPoint(sdp._logged(t_cap), w, z_b, rho_b)
    g = [v[:, :, None] * v[:, None, :]]
    dual = sdp.BallDual(g, [None], [caps[:, None, None]], fid, floor, free_cap)
    return sdp.BallSolve("closedForm", 0, sdp.recheck(ball, point), point, dual)


def _rounded_up(t: float, rel: float) -> float:
    """The next float above t (1 + rel + ln 2 ulp(log2 t)): at least
    t (1 + rel), and its log2, rounded by one ulp at most, at least
    log2 (t (1 + rel))."""
    return math.nextafter(t * (1.0 + rel + math.log(2.0) * math.ulp(math.log2(t))), math.inf)


def _t_star_cap(segment: tuple, c: float, sigmas: np.ndarray, free_mass: float) -> float:
    """A float at or above the exact least t of ``_water_fill``'s program,
    from its computed crossing on ``segment`` = (root, A, S, L), the
    fidelity c and the caps' (sigma_b, s0), which are taken as exact.

    With u = 2^-53, t_min = 1 / (sum_b sigma_b + s0) is rounded twice
    (``math.fsum`` and the reciprocal), so it is at most 2u above the
    float.  The crossing solves G(r) = A r + sqrt(L (1 - S r^2)) - c = 0
    with r = sqrt(t), and the computed A, S and L are cumulative sums of
    at most n terms of one or two roundings each: relative errors of at
    most g = (n + 1) u / (1 - (n + 1) u).  A bound on |G(root)| with
    exact data is then the computed residual, its own rounding (4u times
    its terms), the data's errors times G's partial derivatives, and c's
    rounding (2u c + u / c); dividing twice that by G'(root), which is
    positive on the segment since F grows with t, bounds r* - root.  The
    bound (root + shift)^2 is taken whenever it is no higher than the
    fallback root^2 2^(BISECT_TOL_BITS / 4), that is when
    shift <= root (2^(BISECT_TOL_BITS / 8) - 1).  Else (G' not positive,
    or an ill-conditioned crossing) the crossing's t is raised by
    2^(BISECT_TOL_BITS / 4), which the certified interval still holds.
    """
    root, a, s, rest = segment
    u = 2.0**-53
    t_min = _rounded_up(1.0 / math.fsum([*sigmas.tolist(), free_mass]), 2.0 * u)
    if root <= 0.0:
        return t_min
    g = (len(sigmas) + 1) * u / (1.0 - (len(sigmas) + 1) * u)
    tail = math.sqrt(max(rest * (1.0 - s * root * root), 0.0))
    fit = a * root + tail
    err = abs(fit - c) + 4.0 * u * (fit + c) + g * (a * root + tail / 2.0) + 2.0 * u * c + u / c
    slope = a
    if rest > 0.0:
        slope = a - s * root * rest / tail if tail > 0.0 else -math.inf
        err += g * rest * s * root * root / (2.0 * tail) if tail > 0.0 else math.inf
    shift = 2.0 * err / slope if slope > 0.0 else math.inf
    if not shift <= root * (2.0 ** (BISECT_TOL_BITS / 8.0) - 1.0):
        return max(t_min, root * root * 2.0 ** (BISECT_TOL_BITS / 4.0))
    return max(t_min, _rounded_up((root + shift) ** 2, u))


def _certified_value(ball: sdp.Ball, res: sdp.BallSolve) -> float:
    """log2 t of a min t solve of ``d_max_smooth``, closed-form or
    interior-point, once its interval [lower, v] is certified in block
    form: "primal" and "gap" of the point's recheck at t = 2^v, and
    "lower" = log2 of ``sdp.lower_bound`` of the solve's dual, -inf when
    that bound is not positive.  When 2^v is the solve's t, the recheck is
    the solve's own, which ``sdp.minimize_balls`` and ``_water_fill`` make
    of every point they hand back at t = 2^(log2 t) (``sdp._logged``); else
    (a t whose log2 does not round-trip even so) the point is rechecked
    with t set to 2^v.
    SolverError, naming both ends, the status and the iterations, unless
    ``sdp.within_tolerance`` passes the recheck and [lower, v] is at most
    BISECT_TOL_BITS wide."""
    ended = f"(solve ended {res.status} after {res.iterations} iterations)"
    t = res.point.t
    if not (math.isfinite(t) and t > 0.0):
        raise SolverError(f"D_max^eps solve gave t = {t} {ended}", res.residuals)
    value = math.log2(t)
    if 2.0**value == t:
        residuals = {key: res.residuals[key] for key in ("primal", "gap")}
    else:
        residuals = sdp.recheck(ball, replace(res.point, t=2.0**value))
    t_low = sdp.lower_bound(ball, res.dual)
    lower = residuals["lower"] = math.log2(t_low) if t_low > 0.0 else -math.inf
    if not (sdp.within_tolerance(residuals) and abs(value - lower) <= BISECT_TOL_BITS):
        raise SolverError(f"D_max^eps in [{lower}, {value}] not certified {ended}", residuals)
    return value


def i_max_cq_many(cqs: list[qo.CQState], eps: float) -> list[float]:
    """``i_max_smooth`` of each ``CQState``, its classical register first,
    with all their capped balls solved as one batch.

    A cq state's value is taken from its blocks (``_cq_pairs``), one pair
    per symbol; the dense cq matrix is never built."""
    eps = _validate_eps(eps)
    return _d_max_smooth_many([_cq_pairs(cq) for cq in cqs], eps)


def _cq_pairs(cq: qo.CQState) -> list[tuple[np.ndarray, np.ndarray]]:
    """(w_s rho_s, q_s rho_S) for each symbol s of ``cq``, with
    q_s = Tr w_s rho_s and rho_S = sum_s w_s rho_s: the diagonal blocks of
    the dense cq matrix and of the product of its marginals.  The weighted
    blocks are ``cq``'s stack as it is, Hermitian as a ``CQState`` holds
    them (its full check keeps the Hermitian parts, and a derived state is
    made from those by sums, scalings, scatters and partial traces, which
    keep them Hermitian exactly); their PSD check is ``_ball_blocks``' on
    each component's own spectrum (the least eigenvalue of a block is the
    least over its components), and the sigma blocks are PSD by
    construction.
    """
    rho_s = np.einsum("xij->ij", cq.blocks)
    return [(block, q_s * rho_s) for block, q_s in zip(cq.blocks, cq.probs)]


def i_max_smooth(rho_ab, dims: tuple[int, int], eps: float) -> float:
    """Smooth max information against the fixed product of the marginals.

    ``la.assert_density`` checks rho_AB, and sigma = rho_A (x) rho_B is
    built from the partial traces of the matrix it returns: PSD, so it gets
    no check of its own.  The value is ``d_max_smooth``'s of that pair.
    """
    rho_ab = la.assert_density(rho_ab)
    lay = la.layout(("A", dims[0]), ("B", dims[1]))
    sigma = la.tensor(la.partial_trace(rho_ab, lay, ["A"]), la.partial_trace(rho_ab, lay, ["B"]))
    return _d_max_smooth_many([[(rho_ab, sigma)]], _validate_eps(eps))[0]


# ---------------------------------------------------------------------------
# von Neumann quantities


def spectrum_entropy(values) -> float:
    """-sum v log2 v over the entries v > ``la.ZERO_MASS`` of a spectrum or
    a probability vector (of any shape), in bits."""
    w = np.asarray(values, dtype=float)
    w = w[w > la.ZERO_MASS]
    return float(-(w * np.log2(w)).sum())


def entropy(rho) -> float:
    """Von Neumann entropy of a PSD operator, in bits, from one ``eigvalsh``
    whose least eigenvalue gets ``la.assert_psd``'s check."""
    w = np.linalg.eigvalsh(la.assert_hermitian(rho))
    la._check_psd(float(w[0]))
    return spectrum_entropy(w)


def holevo_cq(cq: qo.CQState) -> float:
    """The Holevo quantity I(S:Q) of a ``CQState``, its classical register S
    against its quantum part Q, from the blocks:

        I(S:Q) = H(q) + H(sum_s w_s rho_s) - sum_s H(w_s rho_s),

    with q_s = Tr w_s rho_s and H of a block the entropy of its spectrum.
    The block-diagonal rho_SQ has the union of the weighted blocks' spectra,
    Tr_Q of it is diag(q) and Tr_S of it is sum_s w_s rho_s, so this is
    H(S) + H(Q) - H(SQ) exactly, for subnormalized blocks too (Wilde,
    Hayden, Buscemi and Hsieh, arXiv:1206.4121).  The blocks' least
    eigenvalue gets ``la.assert_density``'s check of the dense cq matrix:
    at least -``la.PSD_SLACK``.  One stacked ``eigvalsh`` over the blocks and
    one over their sum (``entropy``), and the dense cq matrix is never built.
    """
    spectra = np.linalg.eigvalsh(cq.blocks)
    la._check_psd(float(spectra[:, 0].min()))
    h_q = entropy(np.einsum("xij->ij", cq.blocks))
    return spectrum_entropy(cq.probs.real) + h_q - spectrum_entropy(spectra)
