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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg as la
from . import qobjects as qo
from . import sdp

BISECT_TOL_BITS = 1e-3


class SolverError(RuntimeError):
    """Raised when a smoothing value fails one of its two certificates, or
    its solve gives no positive t; carries residuals.  A solve that stops
    short of convergence raises nothing while both certificates pass."""

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
    if abs(total_mass - 1.0) > 1e-8:
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
        if budget <= 1e-15:
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
    operator: np.ndarray | None
    achieved_alpha: float
    achieved_beta: float
    per_symbol: dict[str, np.ndarray] | None = None


class _Blocks:
    """Block-diagonal pair (rho, sigma) as ``(n, d, d)`` stacks of subnormalized blocks.

    Every block has one dimension d: ``i_hyp_cq``'s blocks all live on the
    quantum register, and ``d_hyp``'s pair is one block (n = 1).

    alpha_strict(t) = sum_b Tr[{t rho_b - sigma_b > 0} rho_b] is the left
    derivative of the convex map t -> sum_b Tr(t rho_b - sigma_b)_+, so it
    is nondecreasing in t.  Its eigenvalues grow with t (rho_b >= 0), and
    it jumps only where one of them crosses 0: where t rho_b - sigma_b is
    singular, at t = 1 / mu for mu > 0 in the spectrum of
    sigma_b^(-1/2) (rho_b / K) sigma_b^(-1/2) on supp sigma_b, with
    rho_b / K the Schur complement of rho_b's corner on ker sigma_b
    (rho_b itself when rho_b carries no mass there, as for every block of
    ``i_hyp_cq``, whose sigma_b = p_b rho_S covers each rho_b).  Between
    two jumps it is continuous; for a commuting pair it is constant there.

    ``sigma_mass`` is each sigma block's trace, or its matrix's if it is a slot.
    """

    def __init__(self, rho_blocks, sigma_blocks, sigma_mass=None):
        self.rho = np.stack([la.as_matrix(b) for b in rho_blocks])
        self.sigma = np.stack([la.as_matrix(b) for b in sigma_blocks])
        self.sigma_mass = np.einsum("nii->n", self.sigma).real if sigma_mass is None else sigma_mass

    @cached_property
    def sigma_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """One stacked ``eigh`` of sigma: the kernel test's and the jumps'."""
        return np.linalg.eigh(self.sigma)

    def spectra(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors of every block's t rho - sigma,
        stacked over the blocks, from one ``eigh``."""
        return np.linalg.eigh(t * self.rho - self.sigma)

    def alpha_strict(self, t: float, tol: float) -> float:
        d, v = self.spectra(t)
        return sum(_row_sums(_weights(v, self.rho), d > tol))

    def jumps(self) -> tuple[list[float], list[float]]:
        """The points t_j where alpha_strict jumps, ascending, and the half
        width of each one's window: where a computed reading may fall on
        either side of the jump.

        From sigma's ``eigh`` and one stacked ``eigh`` of the pencil
        sigma_b^(-1/2) (rho_b / K) sigma_b^(-1/2) on supp sigma_b (the
        class docstring).  Its eigenvector y of mu gives the null vector x
        of t_j rho_b - sigma_b, and x^dag rho_b x / |x|^2 = lambda' is the
        speed at which that eigenvalue crosses 0.  A backward stable
        ``eigh`` of t rho_b - sigma_b errs by about EIG_NOISE times its
        norm (at most t Tr rho_b + Tr sigma_b), so the window's half width
        is EIG_NOISE (t_j Tr rho_b + Tr sigma_b) / lambda'.  Jumps within
        1e-9 of each other, relatively, are one jump whose window spans
        them all.
        """
        w, v = self.sigma_eigh
        supp = w > 1e-12
        inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=supp)
        inv_sqrt = np.sqrt(inv_w)
        rot = v.conj().swapaxes(-1, -2) @ self.rho @ v
        # x = (D y, gain D y) on supp sigma_b (+) ker sigma_b, with D = inv_sqrt
        gain = None
        for b in np.flatnonzero(~supp.all(axis=1)):
            k, s = ~supp[b], supp[b]
            corner = rot[b][np.ix_(k, k)]
            if np.abs(corner).max() <= 1e-12:
                continue
            g = np.linalg.pinv(corner, rcond=1e-10, hermitian=True) @ rot[b][np.ix_(k, s)]
            rot[b][np.ix_(s, s)] -= rot[b][np.ix_(s, k)] @ g
            gain = np.zeros_like(rot) if gain is None else gain
            gain[b][np.ix_(k, s)] = -g
        mu, y = np.linalg.eigh(inv_sqrt[:, :, None] * rot * inv_sqrt[:, None, :])
        spread = np.einsum("nki,nk->ni", (y * y.conj()).real, inv_w)
        if gain is not None:
            spread += (np.abs(gain @ (inv_sqrt[:, :, None] * y)) ** 2).sum(axis=1)
        live = (mu > 0) & (mu > 1e-12 * mu.max(initial=0.0))
        mu_live = np.where(live, mu, 1.0)
        norm = np.einsum("nii->n", self.rho).real[:, None] / mu_live
        norm += self.sigma_mass[:, None]
        at, half = 1.0 / mu[live], (EIG_NOISE * norm * spread / mu_live)[live]
        order = np.argsort(at, kind="stable")
        points, halves = [], []
        for t, h in zip(at[order].tolist(), half[order].tolist()):
            if points and t <= points[-1] * (1.0 + 1e-9):
                halves[-1] = max(halves[-1], h, t - points[-1])
            else:
                points.append(t)
                halves.append(h)
        return points, halves


def _weights(v: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Real diagonals of v_b^dag M_b v_b, one row per block."""
    return np.real(np.einsum("nij,njk,nki->ni", v.conj().swapaxes(-1, -2), mats, v))


def _row_sums(w: np.ndarray, mask: np.ndarray) -> list[float]:
    """Each block's sum of ``w`` over ``mask``, as ``w[b][mask[b]].sum()``.

    Summed row by row: a zero-filled stacked sum associates the terms of a
    row of 8 or more differently, which can move the bisection's bracket.
    """
    return [float(row[m].sum()) for row, m in zip(w, mask)]


# relative error of a stacked eigh's eigenvalues (4 ulps), the absolute error
# of a computed alpha_strict (64 ulps), and the relative width at which the
# root search of a continuous crossing hands over to its confirmation
EIG_NOISE = 2.0**-50
ALPHA_NOISE = 2.0**-46
ROOT_CLOSE = 2.0**-30


class _Readings:
    """The readings alpha_strict(t, 0) of one threshold search, and the
    confirmed bracket [lo, hi] outside which it answers without an ``eigh``.

    ``read`` keeps every reading, so a point read twice costs one ``eigh``.
    ``reaches(t)``, alpha_strict(t, 0) >= target, is False at t <= lo and
    True at t >= hi, and read elsewhere.  ``below`` and ``above`` are the
    tightest points read on either side of the target, which steer the
    search; only ``confirm`` moves [lo, hi].
    """

    def __init__(self, blocks: _Blocks, target: float):
        self.blocks, self.target = blocks, target
        self.alpha: dict[float, float] = {}
        self.lo, self.hi = 0.0, math.inf

    def read(self, t: float) -> float:
        if t not in self.alpha:
            self.alpha[t] = self.blocks.alpha_strict(t, 0.0)
        return self.alpha[t]

    def reaches(self, t: float) -> bool:
        if t <= self.lo:
            return False
        if t >= self.hi:
            return True
        return self.read(t) >= self.target

    def below(self) -> float:
        return max((t for t, a in self.alpha.items() if a < self.target), default=0.0)

    def above(self) -> float:
        return min((t for t, a in self.alpha.items() if a >= self.target), default=math.inf)

    def confirm(self, t: float, half: float) -> bool:
        """Read t - half, and t + half when t - half reads below the
        target; when they straddle it, they become [lo, hi]."""
        a, b = t - half, t + half
        if self.read(a) < self.target <= self.read(b):
            self.lo, self.hi = a, b
            return True
        return False


def _np_bracket(rd: _Readings) -> None:
    """Confirm a bracket [lo, hi] of the threshold from the jumps of
    alpha_strict (``_Blocks.jumps``), or leave none.

    A bisection over the points between the jumps (the geometric means of
    neighbours, half the first, twice the last) finds the least that
    reads at or above the target.  The crossing is then at the jump just
    below it, or in a continuous stretch beside that jump.  At the jump,
    [t_j - h, t_j + h] with h its window's half width (at least 4 ulps) is
    confirmed when its ends straddle the target; a failed confirmation
    widens h 16-fold, at most three times, while t_j stays between the
    tightest readings.  Otherwise the crossing is a root of the
    continuous alpha_strict: ``_np_root``.
    """
    points, halves = rd.blocks.jumps()
    if not points:
        return
    between = [math.sqrt(a * b) for a, b in zip(points, points[1:])]
    probes = [points[0] / 2.0, *between, points[-1] * 2.0]
    lo, hi = -1, len(probes)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rd.read(probes[mid]) >= rd.target:
            hi = mid
        else:
            lo = mid
    if 1 <= hi <= len(points):
        t = points[hi - 1]
        half = max(halves[hi - 1], 4.0 * math.ulp(t))
        for _ in range(4):
            if not rd.below() < t < rd.above():
                break
            if rd.confirm(t, half):
                return
            half *= 16.0
    _np_root(rd)


def _np_root(rd: _Readings) -> None:
    """Confirm a bracket of a crossing of the continuous alpha_strict, or
    leave none.

    Regula falsi between the tightest readings (times 4 from the last one
    until one reads at or above the target), safeguarded twice: the
    Illinois rule halves the stale end's value when one end moves twice
    running, and a third move of the same end takes the geometric mean.
    Once the readings are within ROOT_CLOSE of each other, relatively,
    their secant gives the root r and the slope s, and [r - h, r + h] with
    h = ALPHA_NOISE / s (at least 4 ulps) is confirmed as at a jump, h
    widened 16-fold at most twice.  Readings out of order (a point reading
    at or above the target below one that reads under it) end the search
    with no bracket, and so do 40 steps without convergence and a reading
    equal to the end it replaces (a plateau, where regula falsi creeps).
    """
    target = rd.target
    for _ in range(200):
        if not math.isinf(rd.above()):
            break
        rd.read(4.0 * rd.below() if rd.below() > 0.0 else 1.0)
    low, high = rd.below(), rd.above()
    if not low < high < math.inf:
        return
    g_low, g_high = rd.alpha.get(low, 0.0) - target, rd.alpha[high] - target
    side = 0
    for _ in range(40):
        low, high = rd.below(), rd.above()
        if not low < high:
            return
        if high - low <= ROOT_CLOSE * high:
            a_low, a_high = rd.alpha.get(low, 0.0), rd.alpha[high]
            slope = (a_high - a_low) / (high - low)
            root = min(max(low + (target - a_low) / slope, low), high)
            half = max(ALPHA_NOISE / slope, 4.0 * math.ulp(root))
            for _ in range(3):
                if rd.confirm(root, half):
                    return
                half *= 16.0
            return
        t = high - g_high * (high - low) / (g_high - g_low)
        if abs(side) >= 3:
            t = math.sqrt(low * high) if low > 0.0 else high / 4.0
        if g_high == 0.0:
            t = max(high * (1.0 - ROOT_CLOSE / 2.0), (low + high) / 2.0)
        if not low < t < high:
            t = (low + high) / 2.0
        reaches = rd.read(t) >= target
        if rd.alpha[t] == rd.alpha.get(high if reaches else low):
            return
        if reaches:
            g_high = rd.alpha[t] - target
            if side > 0:
                g_low /= 2.0
            side = side + 1 if side > 0 else 1
        else:
            g_low = rd.alpha[t] - target
            if side < 0:
                g_high /= 2.0
            side = side - 1 if side < 0 else -1


def _np_bisect(blocks: _Blocks, target: float) -> tuple[float, float]:
    """Bracket [t_lo, t_hi] of the least t with alpha_strict(t) >= target.

    First a bracket of the threshold is confirmed from the jumps of
    alpha_strict (``_np_bracket``).  Then the bisection runs: expansion
    by 4 from [0, 1], then halving until the float64 midpoint stops
    falling strictly inside the bracket, at most 120 times; further
    halvings would only probe t_lo or t_hi again and leave the bracket as
    it is.  A point outside the confirmed bracket is answered without an
    ``eigh`` (``_Readings.reaches``), and a point read before is not read
    again, so the bisection reads only its own points inside the
    confirmed bracket.

    The computed alpha_strict is not monotone near the threshold: inside
    a window of a few to a few thousand ulps, its readings fall on either
    side of the target at random.  The bisection's answer is where its
    own points land in that window, so an answer without an ``eigh`` is
    its own only when it lies outside the window.  Hence only a
    confirmed bracket, whose half width bounds the window, answers
    points; the readings of the search inside it only steer it.  So the
    bracket, the tests, alpha and beta are those of the bisection alone
    (``tests/oracles.np_bisect_fixed``).  With no confirmed bracket (no
    jumps, a crossing the root search does not pin down) the bisection
    runs alone, less the points the search has read.
    """
    rd = _Readings(blocks, target)
    _np_bracket(rd)
    t_lo, t_hi = 0.0, 1.0
    for _ in range(200):
        if rd.reaches(t_hi):
            break
        t_lo, t_hi = t_hi, t_hi * 4.0
    for _ in range(120):
        mid = (t_lo + t_hi) / 2
        if not t_lo < mid < t_hi:
            break
        if rd.reaches(mid):
            t_hi = mid
        else:
            t_lo = mid
    return t_lo, t_hi


def _np_threshold(blocks: _Blocks, eps: float):
    """Optimal NP test; returns (beta, per-block test operators, alpha).

    The blocks are searched together: the kernel test and the jumps come
    from one stacked ``eigh`` of sigma (``_Blocks.sigma_eigh``), each
    probe of ``alpha_strict`` is one stacked ``eigh`` of t rho - sigma
    and one stacked weight ``einsum``, and the tests at the bracket's top
    come from one stacked spectrum.  The threshold's bracket is
    ``_np_bisect``'s: the bisection's own, read at about a dozen points
    around a confirmed bracket from alpha_strict's jumps instead of 55.
    Sums over blocks run in block order, each block's own sum as a
    per-block search takes it, so the bracket, the tests and
    (alpha, beta) are those of a search one block at a time.
    """
    target = 1.0 - eps
    # beta = 0 reachable: test supported on ker(sigma)
    w, v = blocks.sigma_eigh
    ker_tests, ker_alpha = [], 0.0
    for r, wb, vb in zip(blocks.rho, w, v):
        kcols = vb[:, np.abs(wb) <= 1e-12]
        ker_tests.append(kcols @ kcols.conj().T)
        if kcols.size:
            ker_alpha += float(np.trace(ker_tests[-1] @ r).real)
    if ker_alpha >= target - 1e-12:
        return math.inf, ker_tests, ker_alpha

    if eps <= 1e-14:
        tests = [la.support_projector(r) for r in blocks.rho]
        alpha = sum(float(np.trace(p @ r).real) for p, r in zip(tests, blocks.rho))
        beta = sum(float(np.trace(p @ s).real) for p, s in zip(tests, blocks.sigma))
        return beta, tests, alpha

    scale = sum(blocks.sigma_mass.tolist()) + 1.0
    t_lo, t_hi = _np_bisect(blocks, target)
    t_star = t_hi
    gap = max(t_hi - t_lo, 1e-15) * (1.0 + scale)
    d, v = blocks.spectra(t_star)
    w_r, w_s = _weights(v, blocks.rho), _weights(v, blocks.sigma)
    take, border = d > gap, np.abs(d) <= gap
    alpha_strict = sum(_row_sums(w_r, take))
    kernel_w = sum(_row_sums(w_r, border))
    c = 0.0
    if kernel_w > 1e-15:
        c = min(max((target - alpha_strict) / kernel_w, 0.0), 1.0)
    weights = take.astype(float) + c * border.astype(float)
    tests = (v * weights[:, None, :]) @ v.conj().swapaxes(-1, -2)
    alpha = sum((w_r * weights).sum(axis=1).tolist())
    beta = sum((w_s * weights).sum(axis=1).tolist())
    return beta, list(tests), alpha


def _np_test(
    rho_blocks: list, sigma_blocks: list, eps: float, symbols=None, sigma_mass=None
) -> tuple[float, NPTest]:
    """The Neyman-Pearson value and test of a block-diagonal pair.

    With ``symbols`` the per-block tests are keyed by symbol in
    ``per_symbol``; without, the pair is one block and its test is
    ``operator``.  ``sigma_mass`` is ``_Blocks``'.
    """
    blocks = _Blocks(rho_blocks, sigma_blocks, sigma_mass)
    beta, tests, alpha = _np_threshold(blocks, _validate_eps(eps))
    value = math.inf if beta <= 0 or math.isinf(beta) else -math.log2(beta)
    beta = 0.0 if math.isinf(beta) else beta
    if symbols is None:
        return value, NPTest(tests[0], alpha, beta)
    return value, NPTest(None, alpha, beta, dict(zip(symbols, tests)))


def d_hyp(rho, sigma, eps: float) -> tuple[float, NPTest]:
    """Smooth hypothesis testing relative entropy with its optimal test."""
    rho = la.assert_density(rho)
    sigma = la.assert_psd(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    return _np_test([rho], [sigma], eps)


def i_hyp_cq(cq: qo.CQState, eps: float, slots=None) -> tuple[float, NPTest]:
    """Hypothesis-testing mutual information of a cq state.

    The optimal test is block diagonal over the classical register; the
    per-symbol components 0 <= Pi_x <= I are exposed for sequential decoders.

    With ``slots``, the register is a direct sum and symbol j's block lives
    on slot ``slots[j]``; t rho_x - sigma_x is negative semidefinite off x's
    slot, so x's test is taken there, with sigma's whole-register mass.
    """
    dist = cq.classical_distribution()
    weights = [dist.prob(s) for s in cq.symbols]
    rho_blocks = [p * cq.blocks[s] for p, s in zip(weights, cq.symbols)]
    at = np.zeros(len(weights), dtype=int) if slots is None else slots
    avg = np.zeros((max(at) + 1,) + rho_blocks[0].shape, dtype=complex)
    np.add.at(avg, at, [cq.weights[s] * cq.blocks[s] for s in cq.symbols])
    mass = None if slots is None else np.array(weights) * float(np.einsum("kii->", avg).real)
    sigma = [p * avg[k] for p, k in zip(weights, at)]
    return _np_test(rho_blocks, sigma, eps, cq.symbols, mass)


# ---------------------------------------------------------------------------
# max relative entropy and smoothed variants


def d_max(rho, sigma) -> float:
    """log2 of the least c with rho <= c sigma; +inf outside the support."""
    rho = la.assert_psd(rho)
    sigma = la.assert_psd(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    proj = la.support_projector(sigma)
    leak = float(np.trace((np.eye(len(rho)) - proj) @ rho).real)
    if leak > 1e-10:
        return math.inf
    isq = la.pseudo_inverse_sqrt(sigma)
    pencil = isq @ rho @ isq
    top = float(np.linalg.eigvalsh((pencil + pencil.conj().T) / 2)[-1])
    if top <= 0.0:
        return -math.inf
    return math.log2(top)


def _support_components(mats: list[np.ndarray]) -> np.ndarray:
    """Per member k of the (n, d, d) stacks ``mats``, the connected
    components of the union support pattern |M[k]_ij| > 1e-12 (made
    symmetric), as (n, d) labels: each index labelled by the least index
    of its component.

    Label propagation on the boolean patterns, every member at once: every
    index starts with its own label and takes the least label among itself
    and its neighbours until no label moves.
    """
    mask = np.abs(mats[0]) > 1e-12
    for m in mats[1:]:
        mask |= np.abs(m) > 1e-12
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


@dataclass
class _BallBlock:
    """How one sub-block that carries rho holds its rho' inside the
    smoothing program, in the eigenbasis of its component's rho_c.

    ``var`` holds a PSD matrix G on supp(rho_b) (+) C^d whose pinned
    top-left corner is rho_b's positive spectrum ``eigs`` (descending, the
    first r of the d directions); rho'_b is the trailing d x d subblock,
    capped by ``sigma``, sigma_b in the same basis.  The reduction keeps the
    fidelity block strictly feasible even when rho_b is rank deficient.
    """

    var: str
    eigs: np.ndarray
    sigma: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.eigs)

    @property
    def dim(self) -> int:
        return len(self.sigma)


def _real_parts(*mats) -> tuple[np.ndarray, ...]:
    """The matrices as real ones when every imaginary part is within
    ``la.HERM_TOL``, the round-off repair ``la._hermitian_part`` makes for
    the anti-Hermitian part; else all as complex matrices, unchanged.

    A real pair gives real rotations (from a real ``eigh``), and real
    sub-blocks of sigma give real smoothing programs, solved over the real
    symmetric matrices with the value and the certificates of the
    Hermitian programs (the conjugation argument of the ``sdp`` docstring).
    """
    if all(np.max(np.abs(m.imag), initial=0.0) <= la.HERM_TOL for m in mats if m.dtype.kind == "c"):
        return tuple(np.real(m) for m in mats)
    return tuple(np.asarray(m, dtype=complex) for m in mats)


def _ball_blocks(pairs) -> tuple[list[_BallBlock], float]:
    """The sub-blocks that carry rho of the direct sum (+)_k (rho_k, sigma_k)
    of ``pairs``, all of one dimension d (a cq state's blocks), each in the
    eigenbasis of its component's rho_c, and s0 = sum_b Tr sigma_b over
    the rho-free ones.

    Array passes over all the pairs at once, with no loop over components.
    The pairs are stacked, and the field is decided once for all of them
    (``_real_parts``).  Each component c of a pair's joint support pattern
    of (rho_k, sigma_k) (labels from ``_support_components``, grouped by
    size by ``_by_size``) is rotated into the eigenbasis of rho_c: U_c from
    one stacked ``eigh`` per component size across all the pairs, its
    columns in descending eigenvalue order, and
    sigma'_c = U_c^H sigma_c U_c from one stacked product per size.  Each
    rotated component is split again by its own pattern, with the same
    1e-12 mask (diag w joins no two indices), whose components lie inside
    the pair's components, and the sub-blocks of each size are cut out as
    one stack.  They are listed pair by pair, and within a pair by their
    least original index, so the parts of two components may interleave;
    s0 is summed in that order.  A sub-block b lists its kept eigenvalues
    (above 1e-12) in descending order, then its kernel directions, and
    holds sigma_b, real when its imaginary parts are within
    ``la.HERM_TOL`` (tested over each stack at once).  A sub-block with no
    kept eigenvalue is rho-free and adds Tr sigma_b to s0.

    The split is exact.  Smooth entropies are invariant under isometries
    and split over direct sums (Tomamichel, arXiv:1504.00233), so the pairs
    are one program, and it may be posed in the basis (+)_c U_c: rho is
    diagonal there, and sigma is (+)_c sigma'_c.  The pinching P onto the
    sub-blocks fixes both, and it maps a feasible rho' to a feasible one:
    P(rho') is a density, the cap passes to P(rho') <= t P(sigma') =
    t sigma', and F(rho, P(rho')) = F(P(rho), P(rho')) >= F(rho, rho') by
    data processing.  So an optimum can be taken block diagonal (the
    program's symmetry under the phases e^(i theta_b) on each sub-block,
    averaged into P; Gatermann and Parrilo, arXiv:math/0211450), and for
    one the fidelity is the sum of the sub-blocks' fidelities.  The same
    argument splits the pairs and each pair into its support components.
    With a degenerate spectrum of rho_c, ``eigh`` picks one basis of the
    eigenspace among many, and sigma'_c in that basis may join indices
    that another basis would separate: the split can only be missed, never
    wrong, since every split it finds is a block structure of both rho and
    sigma' in a basis that diagonalises rho.
    """
    rho, sigma = _real_parts(*(np.stack(mats) for mats in zip(*pairs)))
    # each component's rotated directions sit on its own indices, in
    # descending eigenvalue order, so a sorted part of a component lists
    # its kept directions first
    eigs, rotated = np.zeros(rho.shape[:2]), np.zeros_like(sigma)
    for _, k, ix in _by_size(_support_components([rho, sigma])):
        at = k[:, None, None], ix[:, :, None], ix[:, None, :]
        w, u = np.linalg.eigh(rho[at])
        u = u[..., ::-1]
        eigs[k[:, None], ix] = w[:, ::-1]
        rotated[at] = np.swapaxes(u.conj(), -1, -2) @ sigma[at] @ u
    subs = []
    for ids, k, ix in _by_size(_support_components([rotated])):
        eig, sb = eigs[k[:, None], ix], rotated[k[:, None, None], ix[:, :, None], ix[:, None, :]]
        real = np.abs(sb.imag).max(axis=(1, 2)) <= la.HERM_TOL
        carried = (eig > 1e-12).any(axis=1).tolist()
        subs += zip(ids.tolist(), eig, (b.real if r else b for b, r in zip(sb, real)), carried)
    blocks, free_mass = [], 0.0
    for _, eig, sb, carried in sorted(subs, key=lambda sub: sub[0]):
        if carried:
            blocks.append(_BallBlock(f"ball{len(blocks)}", eig[eig > 1e-12], sb))
        else:
            free_mass += float(np.trace(sb).real)
    return blocks, free_mass


def _entry_pin(var: str, dim: int, i: int, j: int, value: float, imag: bool) -> sdp.ScalarExpr:
    f = np.zeros((dim, dim), dtype=complex)
    if imag:
        f[i, j] = 0.5j
        f[j, i] = -0.5j
    else:
        f[i, j] = 0.5
        f[j, i] += 0.5
    return sdp.ScalarExpr(-value, ((var, f),))


def _capped_ball(ball: tuple, eps: float) -> sdp.SDProblem:
    """The min t program of D_max^eps(rho || sigma), whose optimum is
    2^(D_max^eps): rho' in the fidelity ball of rho, split into the
    sub-blocks of ``ball`` (``_ball_blocks`` of the pairs), each in the
    eigenbasis of its component's rho_c, with each sub-block's cap
    t sigma_b - rho'_b PSD, t a 1x1 variable.

    Per sub-block b that carries rho the program holds one PSD variable
    G_b on supp(rho_b) (+) C^d with the top-left corner pinned to rho_b's
    spectrum and Z = the off-diagonal corner; sum_b Re Tr Z_b >=
    sqrt(1 - eps^2) encodes the fidelity constraint.  rho'_b is the
    trailing subblock of G_b, with no rotation: sigma_b is already in
    rho_b's basis.  A 1x1 sub-block's cap is a scalar row,
    t sigma_b - G_b[1, 1] >= 0, like w's.  The trace of rho',
    sum_b Tr rho'_b + w, is 1.  The program is real when every sigma_b
    is, and then the corner's imaginary parts get no pin: they vanish on
    a real G, and their rows would be zero rows of G_eq.  A Hermitian
    program needs them all, or its corners are not pinned.  t is in no
    equality row.

    The rho-free sub-blocks are folded into one scalar.  On a sub-block
    with rho_b = 0, rho'_b enters the program only through Tr rho'_b, in
    the trace equality, and 0 <= rho'_b <= t sigma_b lets that trace take
    every value in [0, t Tr sigma_b] (rho'_b = a sigma_b reaches each).
    So all of them give way to one 1x1 variable w with w >= 0 and
    t s0 - w >= 0, s0 = sum_b Tr sigma_b over those sub-blocks, and w
    joins the trace equality.  At every fixed t both programs are
    feasible together: a point of the per-block program gives
    w = sum_b Tr rho'_b, and a point of the folded one gives
    rho'_b = (w / s0) sigma_b.  When s0 is 0 (every rho-free sub-block
    has sigma_b = 0, so each rho'_b is pinned to 0) there is no w.
    """
    blocks, free_mass = ball
    free = free_mass > 0.0
    real = not any(np.iscomplexobj(blk.sigma) for blk in blocks)
    prob = sdp.SDProblem()
    tr_terms, z_terms = [], []
    for blk in blocks:
        r, d, var = blk.rank, blk.dim, blk.var
        prob.add_var(var, r + d)
        prob.require_psd(sdp.AffineExpr.zero(r + d).plus_var(var))
        for a in range(r):
            prob.require_eq(_entry_pin(var, r + d, a, a, float(blk.eigs[a]), imag=False))
            for b in range(a + 1, r):
                prob.require_eq(_entry_pin(var, r + d, a, b, 0.0, imag=False))
                if not real:
                    prob.require_eq(_entry_pin(var, r + d, a, b, 0.0, imag=True))
        z_f = np.zeros((r + d, r + d), dtype=complex)
        for a in range(r):
            z_f[a, r + a] = 0.5
            z_f[r + a, a] = 0.5
        z_terms.append((var, z_f))
        tr_f = np.zeros((r + d, r + d), dtype=complex)
        tr_f[r:, r:] = np.eye(d)
        tr_terms.append((var, tr_f))
    one = np.eye(1, dtype=complex)
    if free:
        prob.add_var("w", 1)
        tr_terms.append(("w", one))
    prob.require_eq(sdp.ScalarExpr(-1.0, tuple(tr_terms)))
    prob.require_geq(sdp.ScalarExpr(-math.sqrt(max(0.0, 1.0 - eps * eps)), tuple(z_terms)))
    if free:
        prob.require_geq(sdp.trace_functional("w", 1))
    prob.add_var("t", 1)
    prob.objective = sdp.trace_functional("t", 1)
    for blk in blocks:
        if blk.dim == 1:
            # a 1x1 sub-block carries rank 1, so G_b is 2x2
            tail = np.zeros((2, 2), dtype=complex)
            tail[1, 1] = -1.0
            prob.require_geq(sdp.ScalarExpr(0.0, (("t", blk.sigma), (blk.var, tail))))
        else:
            cap = sdp.AffineExpr.zero(blk.dim).plus_kron(blk.sigma, "t")
            prob.require_psd(cap.plus_subblock(blk.var, blk.rank, -1.0))
    if free:
        prob.require_geq(sdp.ScalarExpr(0.0, (("t", free_mass * one), ("w", -one))))
    return prob


def d_max_smooth(rho, sigma, eps: float) -> float:
    """Smoothed max relative entropy over the purified-distance ball.

    The least t of ``_capped_ball(ball, eps)``, with ``ball`` the
    sub-blocks of the one pair (rho, sigma), gives v = log2 t, and v is
    returned only with two certificates, both with t held fixed:

    - v is feasible: the point passes ``sdp._recheck``'s checks at t = 2^v;
    - v - BISECT_TOL_BITS is infeasible: the dual is a Farkas witness
      (``sdp.witness_fires``) at t = 2^(v - BISECT_TOL_BITS).

    So the value lies in (v - BISECT_TOL_BITS, v].  The program is the
    split and folded one of ``_capped_ball``, and both certificates bound
    D_max^eps itself, for two exact steps:

    - Split: each support component is posed in the eigenbasis of its
      rho_c and split again by the pattern of its rotated sigma'_c, which
      leaves the value alone (the argument is in ``_ball_blocks``:
      Tomamichel, arXiv:1504.00233; Gatermann and Parrilo,
      arXiv:math/0211450).  A degenerate spectrum of rho_c can only hide
      a split, never make a wrong one.
    - Fold: the rho-free sub-blocks are one scalar w; at every fixed t the
      program is feasible exactly when its per-block form is
      (w = sum_b Tr rho'_b one way, rho'_b = (w / s0) sigma_b the other).

    One certificate path per kind of value.  A classical value, whose
    sub-blocks that carry rho are all 1x1 with sigma_b > 0 (a commuting
    pair, split), builds no program: it is a water-filling over
    (lambda_b, sigma_b, s0), whose least t ``_water_fill`` solves exactly,
    with the point and the KKT multipliers, and both certificates are
    evaluated on those vectors (``_certified_fill``).  Every other value
    is solved by ``sdp.minimize_many``, and both certificates are checked
    on the program it compiled (``_certified_value``): the recheck from
    the program's expressions (the solve's own final one, when 2^v is its
    t), the witness by ``Program.farkas``.  The solve's status decides
    nothing: SolverError, naming the status and iterations, is raised only
    when a certificate fails or t is not positive.

    The sub-blocks are found and their spectra taken once
    (``_ball_blocks``).  The pair is taken as ``_real_parts`` gives it:
    real parts when both imaginary parts are within ``la.HERM_TOL``
    (round-off, which ``la._hermitian_part`` repairs the same way), and so
    is each rotated sigma_b.  On a real pair, as on every bundled
    instance, and on a pair whose components all commute, whatever its
    phases, the solve and both certificates work over real symmetric
    matrices.

    This is the one-pair value of ``_d_max_smooth_many``, whose value of
    several pairs, as ``i_max_cq_many`` gives a cq state, is that of their
    direct sum: one ``_ball_blocks`` of all of them, listed pair by pair.
    """
    eps = _validate_eps(eps)
    return _d_max_smooth_many([[(la.assert_density(rho), la.assert_psd(sigma))]], eps)[0]


def _d_max_smooth_many(values: list[list[tuple]], eps: float) -> list[float]:
    """D_max^eps of the direct sum of each value's pairs (rho_k, sigma_k),
    checked already (every matrix PSD and as ``la._hermitian_part``
    returns it, the rho_k together a density), at a checked eps: a
    classical value (every sub-block that carries rho 1x1, with
    sigma_b > 0) is solved in closed form on its scalars (``_water_fill``),
    the others by one ``sdp.minimize_many`` over their min t programs, then
    each value's two certificates in order (``_certified_fill``,
    ``_certified_value``); the first value that fails raises its
    SolverError.  At eps 0 a value is the max of ``d_max`` over its pairs."""
    if eps == 0.0:
        return [max(d_max(rho, sigma) for rho, sigma in pairs) for pairs in values]
    balls = [_ball_blocks(pairs) for pairs in values]
    classical = [all(b.dim == 1 and b.sigma[0, 0] > 0 for b in ball[0]) for ball in balls]
    probs = [_capped_ball(b, eps) for b, c in zip(balls, classical) if not c]
    solved = iter(sdp.minimize_many(probs))
    return [
        _certified_fill(_water_fill(*_scalars(b), eps)) if c else _certified_value(next(solved))
        for b, c in zip(balls, classical)
    ]


def _scalars(ball: tuple) -> tuple[np.ndarray, np.ndarray, float]:
    """(lambda_b, sigma_b, s0) of a classical ``ball``, s0 = 0 unless positive."""
    lam = np.array([blk.eigs[0] for blk in ball[0]])
    return lam, np.array([blk.sigma[0, 0].real for blk in ball[0]]), max(ball[1], 0.0)


@dataclass
class _WaterFill:
    """``_water_fill``'s record: the data, t_cap, the point at t* and the
    KKT multipliers at t_low (each W_b = v_b v_b^T; ``ineq`` on the
    fidelity row, w >= 0, the caps and w's cap; ``nu`` on the pins and the
    trace row)."""

    lam: np.ndarray
    sig: np.ndarray
    free_mass: float
    eps: float
    t_cap: float
    x: np.ndarray
    z: np.ndarray
    w: float
    t_low: float
    v: np.ndarray
    ineq: tuple
    nu: tuple


def _water_fill(lam: np.ndarray, sig: np.ndarray, free_mass: float, eps: float) -> _WaterFill:
    """The min t solve of ``_capped_ball`` in closed form, for a classical
    value: every sub-block b that carries rho is 1x1, with rho_b = lambda_b
    and sigma_b > 0, and s0 = ``free_mass`` >= 0.  No program is built.

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
    sqrt(lambda_b x_b), w = 1 - sum_b x_b, at t_cap >= t* (``_t_star_cap``).
    The multipliers are the water-filling's at t_low = 2^(log2 t_cap -
    BISECT_TOL_BITS), where F(t_low) < c: v_b = (1 / (2 sqrt(kappa_b)),
    -sqrt(kappa_b)), kappa_b = max(mu, sqrt(lambda_b / (t_low sigma_b)) / 2),
    1 on the fidelity row, mu on w >= 0, kappa_b - mu on each cap, 0 on w's
    cap, -1 / (4 kappa_b) on each pin and -mu on the trace row, with gap
    c - F(t_low).  When t_low (sum_b sigma_b + s0) < 1 no point can be
    normalised: 1 on every cap, on w's cap and on the trace row, 0
    elsewhere, with gap 1 - t_low (sum_b sigma_b + s0).
    """
    c = math.sqrt(max(0.0, 1.0 - eps * eps))
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
    if t_star > root * root:
        k = n  # bound by the normalisation: every sub-block is capped at t_min

    x = np.empty(n)
    share = (1.0 - t_star * cap_s[k]) / rest_l[k] if k < n else 0.0
    x[order] = np.concatenate((t_star * sig_o[:k], share * lam_o[k:]))
    t_low = 2.0 ** (math.log2(t_cap) - BISECT_TOL_BITS)
    if t_low * s_all < 1.0:
        v, ineq, nu = np.zeros((n, 2)), (0.0, 0.0, np.ones(n), 1.0), (np.zeros(n), 1.0)
    else:
        k = int(np.sum(top > t_low))
        mu = 0.5 * math.sqrt(rest_l[k] / (1.0 - t_low * cap_s[k])) if k < n else 0.0
        kappa = np.maximum(mu, 0.5 * np.sqrt(lam / (t_low * sig)))
        v = np.stack((0.5 / np.sqrt(kappa), -np.sqrt(kappa)), axis=1)
        ineq, nu = (1.0, mu, kappa - mu, 0.0), (-0.25 / kappa, -mu)
    w = 1.0 - x.sum() if free_mass > 0.0 else 0.0
    return _WaterFill(lam, sig, free_mass, eps, t_cap, x, np.sqrt(lam * x), w, t_low, v, ineq, nu)


def _fill_residuals(fill: _WaterFill) -> dict[str, float]:
    """Both certificates of ``fill`` on its vectors, keyed as
    ``_certified_value``'s.  "primal" and "gap" are ``sdp._recheck``'s at
    t = 2^(log2 t_cap): each G_b's least eigenvalue (closed form), the caps
    t sigma_b - x_b, the fidelity row, with s0 > 0 w and t s0 - w, and the
    trace row (the pins hold exactly).  "witness_gap" and "witness_resid"
    are ``Program.farkas``' gap and |r| of the multipliers at t_low, not
    normalised (the test is homogeneous): r over each G_b's (G_11, G_22,
    sqrt2 G_12) and w, and gap = -(the Lagrangian's constant)."""
    c = math.sqrt(max(0.0, 1.0 - fill.eps * fill.eps))
    t, free = 2.0 ** math.log2(fill.t_cap), fill.free_mass > 0.0
    least = (fill.lam + fill.x) / 2.0 - np.hypot((fill.lam - fill.x) / 2.0, fill.z)
    rows = [least, t * fill.sig - fill.x, [fill.z.sum() - c]]
    rows += [[fill.w, t * fill.free_mass - fill.w]] * free
    primal = max(0.0, *(-float(np.min(row)) for row in rows))
    fid, floor, caps, free_cap = fill.ineq
    pins, trace = fill.nu
    a, b = fill.v[:, 0], fill.v[:, 1]
    r = [a * a + pins, (2.0 * a * b + fid) / math.sqrt(2.0), b * b - caps + trace]
    gap = fid * c - fill.t_low * (float(caps @ fill.sig) + free_cap * fill.free_mass)
    gap += float(pins @ fill.lam) + trace
    resid = math.hypot(float(np.linalg.norm(np.concatenate(r))), (floor - free_cap + trace) * free)
    eq = abs(float(fill.x.sum()) + fill.w - 1.0)
    return {"primal": primal, "gap": eq, "witness_gap": gap, "witness_resid": resid}


def _certified_fill(fill: _WaterFill) -> float:
    """log2 t_cap of a classical value once both certificates pass on its
    vectors (``_fill_residuals``)."""
    return _verdict(math.log2(fill.t_cap), _fill_residuals(fill), "(closed form)")


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
    positive on the segment since F grows with t, bounds r* - root.  When
    G' is not positive or the shift is not small (an ill-conditioned
    crossing), the crossing's t is raised by 2^(BISECT_TOL_BITS / 4)
    instead, which the two certificates still decide.
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
    if not shift <= 1e-6 * root:
        return max(t_min, root * root * 2.0 ** (BISECT_TOL_BITS / 4.0))
    return max(t_min, _rounded_up((root + shift) ** 2, u))


def _certified_value(res: sdp.SDPResult) -> float:
    """log2 t of an interior-point min t solve of ``d_max_smooth``, once
    both certificates pass on its compiled program.  Both are evaluated
    before either raises, and a SolverError of either carries both:
    "primal" and "gap" of the recheck, "witness_gap" and "witness_resid"
    of the witness.  When 2^v is the solve's t and the solve has rechecked
    its point (its residuals hold "primal"), the recheck is that one; else
    the point is rechecked with t set to 2^v."""
    ended = f"(solve ended {res.status} after {res.iterations} iterations)"
    t = float(res.assignment["t"][0, 0].real)
    if not (math.isfinite(t) and t > 0.0):
        raise SolverError(f"D_max^eps solve gave t = {t} {ended}", res.residuals)
    value = math.log2(t)
    if 2.0**value == t and "primal" in res.residuals:
        residuals = {key: res.residuals[key] for key in ("primal", "gap")}
    else:
        at_value = dict(res.assignment, t=np.full((1, 1), 2.0**value))
        residuals = sdp.recheck(res.program.prob, at_value)[1]
    _, _, gap, resid = res.program.farkas(res.dual, {"t": 2.0 ** (value - BISECT_TOL_BITS)})
    residuals.update(witness_gap=gap, witness_resid=resid)
    return _verdict(value, residuals, ended)


def _verdict(value: float, residuals: dict[str, float], ended: str) -> float:
    """``value`` when ``sdp.within_tolerance`` and ``sdp.witness_fires``
    pass its residuals; else SolverError with them all."""
    if not sdp.within_tolerance(residuals):
        raise SolverError(f"D_max^eps = {value} not certified feasible {ended}", residuals)
    if not sdp.witness_fires(residuals["witness_gap"], residuals["witness_resid"]):
        raise SolverError(
            f"D_max^eps = {value} - {BISECT_TOL_BITS} not certified infeasible {ended}", residuals
        )
    return value


def i_max_cq_many(cqs: list[qo.CQState], eps: float) -> list[float]:
    """``i_max_smooth`` of each ``CQState``, its classical register first,
    with all their min t programs solved as one batch.

    A cq state's value is taken from its blocks (``_cq_pairs``), one pair
    per symbol; the dense cq matrix is never built."""
    eps = _validate_eps(eps)
    return _d_max_smooth_many([_cq_pairs(cq) for cq in cqs], eps)


def _cq_blocks(cq: qo.CQState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weighted blocks w_s rho_s of ``cq`` as one stack, their traces
    q_s and their spectra: the diagonal blocks of the dense cq matrix.

    The blocks get ``la.assert_density``'s checks of that matrix, stricter
    than ``CQState``'s PSD check to 1e-7: Hermitian within tolerance (and
    repaired as ``la._hermitian_part`` does), the least eigenvalue of one
    stacked ``eigvalsh`` at least -``la.PSD_TOL`` * 100, the total trace 1
    within 1e-8.
    """
    blocks = la._hermitian_part(la._as_stack([cq.weights[s] * cq.blocks[s] for s in cq.symbols]))
    spectra = np.linalg.eigvalsh(blocks)
    la._check_psd(float(spectra[:, 0].min()))
    q = np.einsum("xii->x", blocks)
    total = float(q.real.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"trace {total} is not 1 within tolerance")
    return blocks, q, spectra


def _cq_pairs(cq: qo.CQState) -> list[tuple[np.ndarray, np.ndarray]]:
    """(w_s rho_s, q_s rho_S) for each symbol s of ``cq``, with
    q_s = Tr w_s rho_s and rho_S = sum_s w_s rho_s: the diagonal blocks of
    the dense cq matrix and of the product of its marginals.  The weighted
    blocks are ``_cq_blocks``'; the sigma blocks are PSD by construction.
    """
    blocks, q, _ = _cq_blocks(cq)
    rho_s = np.einsum("xij->ij", blocks)
    return [(block, q_s * rho_s) for block, q_s in zip(blocks, q)]


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
    """-sum v log2 v over the entries v > 1e-15 of a spectrum or a
    probability vector (of any shape), in bits."""
    w = np.asarray(values, dtype=float)
    w = w[w > 1e-15]
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
    Hayden, Buscemi and Hsieh, arXiv:1206.4121).  The blocks are
    ``_cq_blocks``', with its checks; one stacked ``eigvalsh`` over them and
    one over their sum (``entropy``), and the dense cq matrix is never built.
    """
    blocks, q, spectra = _cq_blocks(cq)
    h_q = entropy(np.einsum("xij->ij", blocks))
    return spectrum_entropy(q.real) + h_q - spectrum_entropy(spectra)
