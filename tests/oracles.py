"""Independent reference computations used to check the library.

Nothing in here imports povmcomp: oracles are deliberately written against
plain numpy/scipy (or brute force) so that a bug in the library cannot hide
inside its own test harness.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import scipy.linalg
import scipy.optimize


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(op: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Index-summation partial trace over the factors not in ``keep``."""
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    kdims = [dims[i] for i in keep]
    kdim = int(np.prod(kdims)) if kdims else 1
    out = np.zeros((kdim, kdim), dtype=complex)

    def unflatten(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def flatten_keep(idx):
        out_i = 0
        for pos in keep:
            out_i = out_i * dims[pos] + idx[pos]
        return out_i

    total = int(np.prod(dims))
    for r in range(total):
        ri = unflatten(r)
        for c in range(total):
            ci = unflatten(c)
            if all(ri[t] == ci[t] for t in traced):
                out[flatten_keep(ri), flatten_keep(ci)] += op[r, c]
    return out


def steered_blocks_oracle(elements: dict, pure: np.ndarray, dims: list[int]) -> dict:
    """Dense Lueders post-measurement blocks of a POVM acting on factor 0 of
    the pure state ``pure`` over ``dims``, reduced to the other factors:
    Tr_0[(sqrt(El) (x) I) |pure><pure| (sqrt(El) (x) I)], of trace p(El)."""
    rho = np.outer(pure, pure.conj())
    rest = int(np.prod(dims[1:]))
    out = {}
    for key, el in elements.items():
        w, v = np.linalg.eigh(el)
        sq = kron_oracle((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T, np.eye(rest))
        out[key] = partial_trace_oracle(sq @ rho @ sq.conj().T, dims, list(range(1, len(dims))))
    return out


def fidelity_oracle(a: np.ndarray, b: np.ndarray) -> float:
    sa = scipy.linalg.sqrtm(a)
    inner = scipy.linalg.sqrtm(sa @ b @ sa)
    return float(np.real(np.trace(inner)))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity ``F = || sqrt(a) sqrt(b) ||_1`` in [0, 1], from the
    singular values of the product of the PSD square roots."""
    sv = np.linalg.svd(psd_sqrt_oracle(a) @ psd_sqrt_oracle(b), compute_uv=False)
    return float(min(np.sum(sv), 1.0))


def purified_distance(fidelity: float) -> float:
    """sqrt(1 - F^2), the smoothing metric, from a fidelity F."""
    return math.sqrt(max(0.0, 1.0 - fidelity * fidelity))


def trace_norm_oracle(op: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh((op + op.conj().T) / 2))))


def trace_norm_distance(a, b) -> float:
    """||a - b||_1 of two Hermitian operators of equal dimension, from the
    eigenvalues of their difference."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return trace_norm_oracle(a - b)


def psd_sqrt_oracle(op: np.ndarray) -> np.ndarray:
    """V sqrt(max(W, 0)) V^dag from the ``eigh`` of op's Hermitian part."""
    w, v = np.linalg.eigh((op + op.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def sqrt_purify(rho: np.ndarray) -> np.ndarray:
    """Purification of ``rho`` on system (x) mirror, a mirror as large as
    the system: the row-major vectorisation of its PSD square root."""
    return psd_sqrt_oracle(rho).reshape(-1)


# the library's support and no-mass cut-offs, ``linalg.SUPPORT_TOL`` and
# ``linalg.ZERO_MASS``
SUPPORT_CUT = ZERO_MASS = 1e-12


def uhlmann_partner(psi, target: np.ndarray) -> np.ndarray:
    """Purification of ``target`` maximizing overlap with ``psi``.

    ``psi`` purifies some state on the primary system (first factor); the
    mirror is everything after it.  The returned vector purifies the target
    in the same space, and its overlap with ``psi`` equals the Uhlmann
    fidelity of reduced(psi) and the target, chosen real nonnegative.  The
    partial isometry of the SVD of sqrt(target) psi is completed to the
    target's support by two unpivoted QR factorisations, the first support
    directions left over taken first.
    """
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    wt, vt = np.linalg.eigh(target)
    d = len(wt)
    if vec.size % d != 0:
        raise ValueError("psi length is not divisible by the target dimension")
    dm = vec.size // d
    rank = int(np.sum(wt > SUPPORT_CUT))
    if dm < rank:
        raise ValueError(f"purifying dimension {dm} smaller than target rank {rank}")
    root = (vt * np.sqrt(np.clip(wt, 0.0, None))) @ vt.conj().T
    u, s, vh = np.linalg.svd(root @ vec.reshape(d, dm), full_matrices=False)
    keep = s > SUPPORT_CUT
    u1, v1 = u[:, keep], vh.conj().T[:, keep]
    part_iso = u1 @ v1.conj().T
    # complete with support directions of target not yet covered
    supp = vt[:, wt > SUPPORT_CUT]
    qrem, rrem = np.linalg.qr(supp - u1 @ (u1.conj().T @ supp))
    extra = [qrem[:, j] for j in range(qrem.shape[1]) if np.abs(rrem[j, j]) > SUPPORT_CUT]
    if extra:
        # orthonormal right-vectors not used by v1
        qc, rc = np.linalg.qr(np.eye(dm, dtype=complex) - v1 @ v1.conj().T)
        v2 = [qc[:, j] for j in range(qc.shape[1]) if np.abs(rc[j, j]) > SUPPORT_CUT]
        if len(v2) < len(extra):
            raise ValueError("purifying dimension too small to complete the partner")
        part_iso = part_iso + np.stack(extra, axis=1) @ np.stack(v2[: len(extra)]).conj()
    return (root @ part_iso).reshape(-1)


def mixture_purification(parts, weights) -> np.ndarray:
    """psi = sum_i sqrt(w_i) |sqrt(rho_i)> |i> of sum_i w_i rho_i on
    A (x) (A' (x) C), as a (d, d, n) array whose [..., i] slice is
    sqrt(w_i) sqrt(rho_i) (zero where w_i is not positive)."""
    slices = [
        math.sqrt(w) * psd_sqrt_oracle(rho) if w > 0 else np.zeros_like(rho)
        for rho, w in zip(np.asarray(parts, dtype=complex), weights)
    ]
    return np.stack(slices, axis=-1)


def purified_good_sets(parts, weights, present, target, eps) -> tuple[np.ndarray, np.ndarray]:
    """The GOOD sets of ``covering.good_sets`` from its purification proof,
    row by row: row r's ``mixture_purification`` over the parts
    ``present[r]`` offers, its ``uhlmann_partner`` phi of ``target``, and
    per part of positive weight w with slice mass q = ||phi_i||^2 above
    ``ZERO_MASS`` the primed state phi_i phi_i^dag / q and the weight ratio
    w / q; GOOD where the ratio is within eps^(1/4) of 1 and the primed
    state within eps^(1/4) of the ratio times the part in trace norm.
    Returns the GOOD mask (b, n) and the primed states, zero off GOOD."""
    parts, weights = np.asarray(parts, dtype=complex), np.asarray(weights, dtype=float)
    (b, n), d = weights.shape, parts.shape[-1]
    good, primed = np.zeros((b, n), dtype=bool), np.zeros((b, n, d, d), dtype=complex)
    for r in range(b):
        cols = np.flatnonzero(present[r])
        psi = mixture_purification(parts[cols], weights[r, cols])
        phi = uhlmann_partner(psi, target).reshape(psi.shape)
        quarter = eps[r] ** 0.25
        for k, i in enumerate(cols):
            q = float(np.sum(np.abs(phi[..., k]) ** 2))
            if weights[r, i] <= 0 or q <= ZERO_MASS:
                continue
            rho_p, ratio = phi[..., k] @ phi[..., k].conj().T / q, weights[r, i] / q
            dist = trace_norm_oracle(rho_p - ratio * parts[i])
            if abs(1 - ratio) <= quarter and dist <= quarter:
                good[r, i], primed[r, i] = True, rho_p
    return good, primed


def verify_certificate(cert, parts: list, weights: list, target: np.ndarray) -> dict[str, bool]:
    """Independent re-check of the three invariants of a GOOD-set
    certificate (``good``, ``primed``, ``prob_good``, ``eps_used``): the GOOD
    mass reaches 1 - 10 eps^(1/4), each primed state is within 2 eps^(1/4)
    of its normalised part in trace norm, and the GOOD parts' weighted sum
    stays below (1 + eps^(1/4)) target."""
    quarter = cert.eps_used**0.25
    ok_prob = cert.prob_good >= 1.0 - 10.0 * quarter
    ok_close = all(
        trace_norm_oracle(cert.primed[i] - parts[i] / max(np.trace(parts[i]).real, 1e-300))
        <= 2 * quarter + 1e-7
        for i in cert.good
    )
    acc = (1.0 + quarter) * np.asarray(target, dtype=complex)
    for i in cert.good:
        acc = acc - weights[i] * cert.primed[i]
    ok_op = float(np.linalg.eigvalsh((acc + acc.conj().T) / 2)[0]) >= -1e-8
    return {"prob_good": ok_prob, "primed_close": ok_close, "operator": ok_op}


def max_law(pu: np.ndarray, pv: np.ndarray) -> np.ndarray:
    """The law of max{U, V} for independent U ~ pu and V ~ pv over one
    ordered alphabet, normalised."""
    out = np.zeros(len(pu))
    for i, j in itertools.product(range(len(pu)), repeat=2):
        out[max(i, j)] += pu[i] * pv[j]
    return out / out.sum()


def trace_norm_subset_oracle(diff_diag: np.ndarray) -> float:
    """``2 max_P Tr[P d]`` over diagonal projectors, for a traceless diagonal d."""
    best = 0.0
    n = len(diff_diag)
    for mask in range(1 << n):
        s = sum(diff_diag[i] for i in range(n) if mask >> i & 1)
        best = max(best, 2.0 * s)
    return best


def hmax_lp_oracle(p: np.ndarray, eps: float) -> float:
    """Generic LP for the smooth max entropy, solved by scipy linprog."""
    n = len(p)
    res = scipy.optimize.linprog(
        c=np.ones(n),
        A_ub=np.array([-p]),
        b_ub=np.array([-(1.0 - eps)]),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"hmax LP failed: {res.message}")
    return float(np.log2(res.fun))


def np_test_lp_oracle(p: np.ndarray, s: np.ndarray, eps: float) -> float:
    """Brute-force randomized-test LP for commuting hypothesis testing.

    Minimizes Tr[Pi sigma] over 0 <= pi <= 1 with Tr[Pi rho] >= 1 - eps,
    on the joint eigenbasis (inputs are the diagonal vectors).
    """
    n = len(p)
    res = scipy.optimize.linprog(
        c=s,
        A_ub=np.array([-p]),
        b_ub=np.array([-(1.0 - eps)]),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"NP LP failed: {res.message}")
    return float(res.fun)


def dmax_bisect_oracle(rho: np.ndarray, sigma: np.ndarray, lo=-40.0, hi=60.0, iters=100) -> float:
    """Bisection on lambda with a PSD check of 2^lambda sigma - rho."""

    def feasible(lam):
        return np.linalg.eigvalsh(2.0**lam * sigma - rho)[0] >= -1e-12

    if not feasible(hi):
        return math.inf
    for _ in range(iters):
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def dmax_smooth_classical_oracle(p: np.ndarray, s: np.ndarray, eps: float) -> float:
    """Exact classical smoothing of D_max over the normalized fidelity ball.

    For fixed lambda, with caps cap_i = 2^lambda s_i, lambda is feasible
    when the caps sum to at least 1 and the best fidelity
    F = max sum sqrt(p_i q_i) over q_i <= cap_i, sum q = 1 is at least
    sqrt(1 - eps^2).  Only the entries with p_i > 0 add fidelity, so they
    water-fill: q_i = min(cap_i, tau p_i) with sum 1 when their caps reach
    1, else q_i = cap_i; the entries with p_i = 0 take the leftover mass up
    to their caps.  The test is 1 - F <= 1 - sqrt(1 - eps^2), both sides
    free of cancellation: 1 - F = (sum (sqrt p_i - sqrt q_i)^2
    + (1 - sum p) + (1 - sum q)) / 2 over the live entries, and
    1 - sqrt(1 - eps^2) = eps^2 / (1 + sqrt(1 - eps^2)).  Bisection on
    lambda, and on tau for each lambda, each until its float64 midpoint
    stops falling strictly inside its bracket.
    """
    slack = eps * eps / (1.0 + math.sqrt(max(0.0, 1.0 - eps * eps)))
    live = p > 0
    p_live = p[live]
    p_lost = 1.0 - math.fsum(p_live.tolist())

    def deficit(lam):
        """1 - the best fidelity at 2^lam, or inf when the caps cannot normalize."""
        cap = 2.0**lam * s
        if cap.sum() < 1.0 - 1e-12:
            return math.inf
        q = cap[live]
        if q.sum() > 1.0:
            lo_t, hi_t = 0.0, float((q / p_live).max())
            for _ in range(200):
                mid = (lo_t + hi_t) / 2
                if not lo_t < mid < hi_t:
                    break
                if np.minimum(q, mid * p_live).sum() >= 1.0:
                    hi_t = mid
                else:
                    lo_t = mid
            q = np.minimum(q, hi_t * p_live)
            q = q / max(q.sum(), 1.0)  # renormalization can only shrink entries
        squares = math.fsum(((np.sqrt(p_live) - np.sqrt(q)) ** 2).tolist())
        return (squares + p_lost + (1.0 - math.fsum(q.tolist()))) / 2.0

    lo, hi = -40.0, 60.0
    if deficit(hi) > slack:
        return math.inf
    for _ in range(200):
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if deficit(mid) <= slack:
            hi = mid
        else:
            lo = mid
    return hi


def np_bisect_fixed(alpha_strict, target: float) -> tuple[float, float]:
    """Bracket of the least t with ``alpha_strict(t) >= target``: the
    Neyman-Pearson threshold bisection with a fixed 120 halvings, even after
    the float64 midpoint has stopped moving."""
    t_lo, t_hi = 0.0, 1.0
    for _ in range(200):
        if alpha_strict(t_hi) >= target:
            break
        t_lo, t_hi = t_hi, t_hi * 4.0
    for _ in range(120):
        mid = (t_lo + t_hi) / 2
        if alpha_strict(mid) >= target:
            t_hi = mid
        else:
            t_lo = mid
    return t_lo, t_hi


class PerBlockNP:
    """The Neyman-Pearson search of a block-diagonal pair (rho, sigma), one
    block at a time: one ``eigh`` and two weight contractions per block per
    probe.  The reference for ``entropies._Blocks`` and ``_np_threshold``,
    which stack the blocks and take a shorter search's bracket: its value
    must lie in their certified interval.  ``threshold`` takes the kernel
    test, the bracket of the fixed 120-halving bisection
    (``np_bisect_fixed``) and the border weight.  Inputs must have
    eps > 1e-14."""

    def __init__(self, rho_blocks, sigma_blocks):
        self.rho = [np.asarray(b, dtype=complex) for b in rho_blocks]
        self.sigma = [np.asarray(b, dtype=complex) for b in sigma_blocks]

    def spectra(self, t: float) -> list:
        out = []
        for r, s in zip(self.rho, self.sigma):
            d, v = np.linalg.eigh(t * r - s)
            w_r = np.real(np.einsum("ij,jk,ki->i", v.conj().T, r, v))
            w_s = np.real(np.einsum("ij,jk,ki->i", v.conj().T, s, v))
            out.append((d, v, w_r, w_s))
        return out

    def alpha_strict(self, t: float) -> float:
        return sum(float(w_r[d > 0.0].sum()) for d, _, w_r, _ in self.spectra(t))

    def threshold(self, eps: float) -> tuple[float, list, float]:
        """(beta, per-block tests, alpha) of the optimal test."""
        assert eps > 1e-14
        target = 1.0 - eps
        ker_tests, ker_alpha = [], 0.0
        for r, s in zip(self.rho, self.sigma):
            w, v = np.linalg.eigh(s)
            kcols = v[:, np.abs(w) <= 1e-12]
            ker_tests.append(kcols @ kcols.conj().T)
            if kcols.size:
                ker_alpha += float(np.trace(ker_tests[-1] @ r).real)
        if ker_alpha >= target - 1e-12:
            return math.inf, ker_tests, ker_alpha
        scale = sum(float(np.trace(s).real) for s in self.sigma) + 1.0
        t_lo, t_hi = np_bisect_fixed(self.alpha_strict, target)
        gap = max(t_hi - t_lo, 1e-15) * (1.0 + scale)
        spectra = self.spectra(t_hi)
        alpha_strict = sum(float(w_r[d > gap].sum()) for d, _, w_r, _ in spectra)
        kernel_w = sum(float(w_r[np.abs(d) <= gap].sum()) for d, _, w_r, _ in spectra)
        c = 0.0
        if kernel_w > 1e-15:
            c = min(max((target - alpha_strict) / kernel_w, 0.0), 1.0)
        tests, alpha, beta = [], 0.0, 0.0
        for d, v, w_r, w_s in spectra:
            weights = (d > gap).astype(float) + c * (np.abs(d) <= gap).astype(float)
            tests.append((v * weights) @ v.conj().T)
            alpha += float((w_r * weights).sum())
            beta += float((w_s * weights).sum())
        return beta, tests, alpha


def sequential_kraus_oracle(tests: list) -> list:
    """Successive-cancellation Kraus operators of one test sequence, built
    one candidate at a time: K_j = U_j^dag S_j with
    S_j = Pi_j (I - Pi_{j-1}) ... (I - Pi_1) and U_j from the SVD of S_j,
    then the failure branch sqrt(I - sum_j S_j^dag S_j) from ``eigh``.  The
    per-sequence reference for the library's stacked ``sequential_kraus``."""
    eye = np.eye(tests[0].shape[0], dtype=complex)
    kraus, tail, residual = [], eye, eye
    for pi in tests:
        s = pi @ tail
        tail = (eye - pi) @ tail
        residual = residual - s.conj().T @ s
        u, _, vh = np.linalg.svd(s)
        kraus.append((u @ vh).conj().T @ s)
    return kraus + [psd_sqrt_oracle(residual)]


def shannon_entropy(p) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def mutual_information_oracle(rho_ab: np.ndarray, dims: tuple[int, int]) -> float:
    """I(A:B) = H(A) + H(B) - H(AB) of a dense bipartite state, in bits, from
    the spectra of the state and of its two index-summation partial traces."""
    h_a, h_b, h_ab = (
        shannon_entropy(np.linalg.eigvalsh(m))
        for m in (
            partial_trace_oracle(rho_ab, list(dims), [0]),
            partial_trace_oracle(rho_ab, list(dims), [1]),
            rho_ab,
        )
    )
    return h_a + h_b - h_ab


def covering_enumeration_oracle(pxy: np.ndarray, blocks: dict, k: int, l: int) -> float:
    """Exact expectation of the measure-transformed covering deviation.

    Enumerates all codebooks (x(1..k), y(1..l)); only usable for tiny sizes.
    ``blocks[x, y]`` are normalized conditional operators on E.
    """
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    nx, ny = pxy.shape
    dim = next(iter(blocks.values())).shape[0]
    sigma = np.zeros((dim, dim), dtype=complex)
    for (x, y), op in blocks.items():
        sigma += pxy[x, y] * op
    total = 0.0
    for xs in itertools.product(range(nx), repeat=k):
        wx = np.prod([px[x] for x in xs])
        if wx == 0:
            continue
        for ys in itertools.product(range(ny), repeat=l):
            w = wx * np.prod([py[y] for y in ys])
            if w == 0:
                continue
            avg = np.zeros((dim, dim), dtype=complex)
            for x in xs:
                for y in ys:
                    if px[x] > 0 and py[y] > 0:
                        avg += pxy[x, y] / (px[x] * py[y]) * blocks[x, y]
            avg /= k * l
            dev = float(np.sum(np.abs(np.linalg.eigvalsh(avg - sigma))))
            total += w * dev
    return total


def min_eig(op: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((op + op.conj().T) / 2)[0])


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def shared_support_pairs(rng: np.random.Generator, n: int, d: int, k: int) -> list[tuple]:
    """n complex pairs (w_x psi_x, w_x rho_E) of dimension d, the blocks of
    a cq state's I_max: pure states psi_x in one random k-dimensional
    subspace, weights w_x and rho_E = sum_x w_x psi_x, of rank k.  Each
    rho has rank 1 and each sigma rank k, and a sigma has no pattern to
    split, so ``entropies._ball_blocks`` makes one (1, d) sub-block of
    each pair."""
    basis = np.linalg.qr(rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))[0]
    weights = rng.dirichlet(np.ones(n))
    states = []
    for _ in range(n):
        psi = basis @ (rng.normal(size=k) + 1j * rng.normal(size=k))
        psi /= np.linalg.norm(psi)
        states.append(np.outer(psi, psi.conj()))
    rho_e = sum(w * state for w, state in zip(weights, states))
    return [(w * state, w * rho_e) for w, state in zip(weights, states)]


def family_instance_parts(seed: int, family: int) -> tuple:
    """The seeded random instance ``seed`` of family 1 or 2, as
    (dims, rho on A (x) B (x) R, alphabet X, alphabet Y, elements by
    (x, y)), drawn as ROADMAP's Baseline states them:

    Family 1 (full-rank POVM elements).  Seed s gives ``default_rng(s)``,
    which draws, in this order:
    - A from {2, 3}, then B and R from {1, 2} (``rng.choice``);
    - n from ``rng.integers(2, 7)``, then (|X|, |Y|) as
      ``pairs[rng.integers(len(pairs))]`` over the ordered factor pairs of
      n (ascending |X|);
    - the rank, ``rng.integers(1, d + 1)`` with d = d_A d_B d_R;
    - ``random_density(rng, d, rank)``, then ``random_povm(rng, d_A, n)``,
      with the elements assigned to (x, y) in row-major order.

    Family 2 (rank-1 POVM elements) draws as family 1, with two changes:
    - n is drawn from ``rng.integers(d_A, 7)``;
    - each of the n elements is g g^dag with g =
      ``rng.normal(size=(d_A, 1))`` + 1j ``rng.normal(size=(d_A, 1))``,
      drawn in turn.  They are normalised by S^(-1/2) . S^(-1/2) with S
      their sum, as ``random_povm`` does.

    The outcomes are named "x0", "x1", ... and "y0", "y1", ...."""
    rng = np.random.default_rng(seed)
    d_a, d_b, d_r = (int(rng.choice(options)) for options in ([2, 3], [1, 2], [1, 2]))
    n = int(rng.integers(2, 7) if family == 1 else rng.integers(d_a, 7))
    pairs = [(a, n // a) for a in range(1, n + 1) if n % a == 0]
    n_x, n_y = pairs[rng.integers(len(pairs))]
    d = d_a * d_b * d_r
    rho = random_density(rng, d, int(rng.integers(1, d + 1)))
    if family == 1:
        elements = random_povm(rng, d_a, n)
    else:
        parts = []
        for _ in range(n):
            g = rng.normal(size=(d_a, 1)) + 1j * rng.normal(size=(d_a, 1))
            parts.append(g @ g.conj().T)
        s_inv = np.linalg.inv(scipy.linalg.sqrtm(sum(parts)))
        elements = [s_inv @ p @ s_inv.conj().T for p in parts]
    alpha_x, alpha_y = [f"x{i}" for i in range(n_x)], [f"y{j}" for j in range(n_y)]
    povm = {(alpha_x[i // n_y], alpha_y[i % n_y]): m for i, m in enumerate(elements)}
    return {"A": d_a, "B": d_b, "R": d_r}, rho, alpha_x, alpha_y, povm


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_povm(rng: np.random.Generator, d: int, n: int) -> list[np.ndarray]:
    """n-outcome POVM on dimension d via normalized random PSD operators."""
    parts = []
    for _ in range(n):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        parts.append(g @ g.conj().T)
    total = sum(parts)
    s_inv = np.linalg.inv(scipy.linalg.sqrtm(total))
    return [s_inv @ p @ s_inv.conj().T for p in parts]


def problem_is_real(prob) -> bool:
    """Whether an SDP's data are all real: the PSD constants, each term's
    coefficient and left matrix, and the F of every scalar row and of the
    objective.  Such a problem is solved over real symmetric matrices, with
    d(d+1)/2 rvec coordinates per d x d block (diagonal, then sqrt2 times
    the upper triangle's real parts); any other over Hermitian ones, d^2."""
    data = []
    for expr in prob.psd_constraints:
        data.append(expr.const)
        for t in expr.terms:
            data.append(t.coeff)
            if t.left is not None:
                data.append(t.left)
    rows = prob.equalities + prob.inequalities
    if prob.objective is not None:
        rows = rows + [prob.objective]
    for row in rows:
        data.extend(f for _, f in row.terms)
    return all(np.all(np.imag(x) == 0.0) for x in data)


def rvec_width(d: int, real: bool) -> int:
    """The rvec coordinates of a d x d block over the real or the Hermitian field."""
    return d * (d + 1) // 2 if real else d * d


def _herm_to_rvec_single(mat: np.ndarray, real: bool = False) -> np.ndarray:
    d = mat.shape[0]
    iu, di = np.triu_indices(d, k=1), np.diag_indices(d)
    s = math.sqrt(2.0)
    upper = mat[iu]
    parts = [np.real(mat[di]), s * np.real(upper)]
    return np.concatenate(parts if real else parts + [s * np.imag(upper)])


def _rvec_to_herm_single(vec: np.ndarray, d: int, real: bool = False) -> np.ndarray:
    iu, di = np.triu_indices(d, k=1), np.diag_indices(d)
    s = math.sqrt(2.0)
    out = np.zeros((d, d), dtype=complex)
    out[di] = vec[:d]
    n_off = iu[0].size
    upper = vec[d : d + n_off] / s
    if not real:
        upper = upper + 1j * vec[d + n_off :] / s
    out[iu] = upper
    out[(iu[1], iu[0])] = upper.conj()
    return out


def linear_part(expr, assign: dict) -> np.ndarray:
    """The linear part of an SDP's affine Hermitian expression at ``assign``:
    its terms summed from zero, in order, without the constant."""
    out = np.zeros_like(expr.const)
    for t in expr.terms:
        out = out + t.apply(assign[t.var])
    return out


def probe_columns_per_basis(program) -> np.ndarray:
    """The SDP's linear map probed one rvec basis vector at a time: each
    column is the problem's linear part at one basis matrix, all other
    variables zero, over the field ``problem_is_real`` reads from the data
    of ``program.prob`` (the only attribute read)."""
    prob = program.prob
    real = problem_is_real(prob)
    widths = [rvec_width(d, real) for d in prob.variables.values()]
    n_rows = sum(rvec_width(e.dim, real) for e in prob.psd_constraints)
    cols = np.zeros((n_rows + len(prob.inequalities) + len(prob.equalities), sum(widths)))
    assign = {lab: np.zeros((d, d), dtype=complex) for lab, d in prob.variables.items()}
    o = 0
    for (lab, d), width in zip(prob.variables.items(), widths):
        for k in range(width):
            basis = np.zeros(width)
            basis[k] = 1.0
            assign[lab] = _rvec_to_herm_single(basis, d, real)
            rows = [
                _herm_to_rvec_single(linear_part(e, assign), real) for e in prob.psd_constraints
            ]
            scalars = [
                sum(float(np.real(np.sum(f.conj() * assign[var]))) for var, f in expr.terms)
                for expr in prob.inequalities + prob.equalities
            ]
            cols[:, o + k] = np.concatenate(rows + [np.array(scalars)])
            assign[lab] = np.zeros((d, d), dtype=complex)
        o += width
    return cols


def clip_slack_per_block(prob, slack: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """An SDP's slack-side vector (one rvec per PSD constraint, over the
    field of ``problem_is_real``, then one weight per inequality) projected
    onto the cone and normalised: each block by its own eigenvalues, the
    weights clipped at 0.  Returns the blocks as matrices and the weights."""
    real = problem_is_real(prob)
    widths = [rvec_width(expr.dim, real) for expr in prob.psd_constraints]
    assert len(slack) == sum(widths) + len(prob.inequalities)
    blocks, pos = [], 0
    for expr, width in zip(prob.psd_constraints, widths):
        w, v = np.linalg.eigh(_rvec_to_herm_single(slack[pos : pos + width], expr.dim, real))
        blocks.append((v * np.clip(w, 0.0, None)) @ v.conj().T)
        pos += width
    weights = np.clip(slack[pos:], 0.0, None)
    norm = math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in blocks) + weights @ weights)
    return [b / norm for b in blocks], weights / norm


def farkas_from_expressions(prob, slack: np.ndarray) -> tuple[float, float]:
    """(gap, |r|) of the Farkas witness an SDP's slack-side vector gives,
    evaluated from the problem's own expressions (``_witness``)."""
    return _witness(prob, slack)[:2]


def _witness(prob, slack: np.ndarray) -> tuple[float, float, float, float]:
    """(gap, |r|, mass, |nu|_1) of the Farkas witness an SDP's slack-side
    vector gives, evaluated from the problem's own expressions.

    ``slack`` holds one rvec per PSD constraint, then one weight per
    inequality; ``clip_slack_per_block`` makes it the cone element w.  With F(x) = sum_b <W_b, E_b(x)> + sum_i w_i g_i(x) + sum_j nu_j h_j(x)
    over the PSD expressions E_b, inequalities g_i and equalities h_j,
    gap = -F(0) and r is F's gradient over the Hermitian rvec coordinates,
    probed one basis matrix at a time, with nu the least-squares
    multiplier.  On a real problem too, so a witness from its real slack is
    tested against every Hermitian point, not only the real symmetric ones.
    mass = sum_b Tr W_b + sum_i w_i: a point whose E_b are at least -p I
    and g_i at least -p has its cone part of F at least -p mass, and one
    whose |h_j| are at most g its equality part at least -g |nu|_1.
    """
    blocks, weights = clip_slack_per_block(prob, slack)

    def cone_part(assign, linear):
        val = sum(
            float(np.real(np.sum(b.conj() * (linear_part(e, assign) if linear else e.const))))
            for b, e in zip(blocks, prob.psd_constraints)
        )
        for wi, iq in zip(weights, prob.inequalities):
            val += wi * (iq.evaluate(assign) - iq.const if linear else iq.const)
        return val

    assign = {lab: np.zeros((d, d), dtype=complex) for lab, d in prob.variables.items()}
    grad, eq_rows = [], []
    for lab, d in prob.variables.items():
        for k in range(d * d):
            basis = np.zeros(d * d)
            basis[k] = 1.0
            assign[lab] = _rvec_to_herm_single(basis, d)
            grad.append(cone_part(assign, True))
            eq_rows.append([eq.evaluate(assign) - eq.const for eq in prob.equalities])
            assign[lab] = np.zeros((d, d), dtype=complex)
    grad, eq_rows = np.array(grad), np.array(eq_rows).reshape(len(grad), len(prob.equalities))
    nu = -np.linalg.lstsq(eq_rows, grad, rcond=None)[0]
    gap = -(cone_part(assign, False) + sum(n * eq.const for n, eq in zip(nu, prob.equalities)))
    mass = sum(float(np.trace(b).real) for b in blocks) + float(weights.sum())
    return gap, float(np.linalg.norm(grad + eq_rows @ nu)), mass, float(np.abs(nu).sum())


def pin_variable(prob, var: str, value: float):
    """A copy of an SDP with its 1x1 variable ``var`` held at ``value``:
    each term of ``var`` becomes the constant it takes there, value * F (a
    kron term's left factor, a scalar term's F), added to its expression's
    constant; ``var`` and the objective are dropped.  Pinning the min t
    program's t gives the program at that fixed t."""
    assert prob.variables[var] == 1
    pinned = np.full((1, 1), float(value))

    def psd(expr):
        const = expr.const
        for t in expr.terms:
            if t.var == var:
                const = const + t.apply(pinned)
        return dataclasses.replace(expr, const=const, terms=[t for t in expr.terms if t.var != var])

    def scalar(expr):
        const = expr.const
        for v, f in expr.terms:
            if v == var:
                const += float(np.real(np.sum(f.conj() * pinned)))
        return dataclasses.replace(
            expr, const=const, terms=tuple((v, f) for v, f in expr.terms if v != var)
        )

    return dataclasses.replace(
        prob,
        variables={lab: d for lab, d in prob.variables.items() if lab != var},
        psd_constraints=[psd(e) for e in prob.psd_constraints],
        equalities=[scalar(e) for e in prob.equalities],
        inequalities=[scalar(e) for e in prob.inequalities],
        objective=None,
    )


def recheck_per_expression(prob, assign: dict) -> dict:
    """The residuals of an SDP's constraints at ``assign``, one expression
    at a time: the least eigenvalue of each PSD expression's Hermitian part
    and each inequality's value give "primal" (0 when all are >= 0), the
    largest |equality value| gives "gap".  It reads no rvec: ``assign``
    holds matrices, real symmetric (a real problem's solve) or Hermitian."""
    min_eig = 0.0
    for expr in prob.psd_constraints:
        val = expr.evaluate(assign)
        min_eig = min(min_eig, float(np.linalg.eigvalsh((val + val.conj().T) / 2)[0]))
    eq_resid = 0.0
    for eq in prob.equalities:
        eq_resid = max(eq_resid, abs(eq.evaluate(assign)))
    for ineq in prob.inequalities:
        min_eig = min(min_eig, ineq.evaluate(assign))
    return {"primal": max(-min_eig, 0.0), "gap": eq_resid}


def support_components_oracle(mats: list) -> list:
    """Connected components of the union pattern |M_ij| > 1e-12 (made
    symmetric), as sorted index arrays ordered by their least index,
    found by breadth-first search."""
    d = mats[0].shape[0]
    adj = np.zeros((d, d), dtype=bool)
    for m in mats:
        adj |= np.abs(m) > 1e-12
    adj |= adj.T
    seen, comps = set(), []
    for start in range(d):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            nxt = [j for i in frontier for j in np.flatnonzero(adj[i]).tolist() if j not in comp]
            comp.update(nxt)
            frontier = nxt
        seen |= comp
        comps.append(np.array(sorted(comp)))
    return comps


def const_expr(sdp, mat: np.ndarray):
    """The affine expression with constant ``mat`` and no terms; ``sdp`` is
    the library's sdp module."""
    mat = np.asarray(mat, dtype=complex)
    return sdp.AffineExpr(mat.shape[0], mat, [])


def capped_ball_per_component(sdp, rho, sigma, eps: float, lam):
    """The smoothing program of D_max^eps(rho || sigma) with one ball
    variable, one ball block and one cap block per component of the joint
    support pattern, the rho-free components included: the form the
    library folds into one scalar.  ``lam`` None gives the min t program,
    a number the fixed-lambda one.  ``sdp`` is the library's sdp module,
    passed in so that this file imports nothing from the library.

    A component that carries rho holds G_c on supp(rho_c) (+) C^d, its
    top-left corner pinned to rho_c's positive spectrum (entry by entry),
    the off-diagonal corner Z_c in the fidelity row and the trailing
    subblock as rho'_c in U, the component's eigenbasis of rho_c (its kept
    eigenvectors in descending order, then its kernel); its cap is
    t U^H sigma_c U - tail(G_c) on the whole component, never split
    further.  A rho-free component's G_c is rho'_c itself.

    When the imaginary parts of rho and sigma are both at most 1e-10, the
    pair is replaced by its real parts and the corner's imaginary parts get
    no pin: on real data the program is solved over real symmetric
    matrices, where those parts are 0.
    """
    if max(np.max(np.abs(np.imag(m))) for m in (rho, sigma)) <= 1e-10:
        rho, sigma, real = np.real(rho), np.real(sigma), True
    else:
        real = False

    def pin(var, dim, i, j, value, imag):
        f = np.zeros((dim, dim), dtype=complex)
        if imag:
            f[i, j], f[j, i] = 0.5j, -0.5j
        else:
            f[i, j] = 0.5
            f[j, i] += 0.5
        return sdp.ScalarExpr(-value, ((var, f),))

    prob = sdp.SDProblem()
    comps = support_components_oracle([rho, sigma])
    caps, tr_terms, z_terms = [], [], []
    for i, c in enumerate(comps):
        d = len(c)
        w, u = np.linalg.eigh(rho[np.ix_(c, c)])
        keep = w > 1e-12
        r = int(keep.sum())
        var = prob.add_var(f"ball{i}", r + d)
        prob.require_psd(sdp.AffineExpr.zero(r + d).plus_var(var))
        if r == 0:
            tr_terms.append((var, np.eye(d, dtype=complex)))
            caps.append((sigma[np.ix_(c, c)], None, var))
            continue
        rotation = np.concatenate([u[:, keep][:, ::-1], u[:, ~keep]], axis=1)
        eigs = w[keep][::-1]
        for a in range(r):
            prob.require_eq(pin(var, r + d, a, a, float(eigs[a]), False))
            for b in range(a + 1, r):
                prob.require_eq(pin(var, r + d, a, b, 0.0, False))
                if not real:
                    prob.require_eq(pin(var, r + d, a, b, 0.0, True))
        z_f = np.zeros((r + d, r + d), dtype=complex)
        z_f[np.arange(r), r + np.arange(r)] = z_f[r + np.arange(r), np.arange(r)] = 0.5
        z_terms.append((var, z_f))
        tr_f = np.zeros((r + d, r + d), dtype=complex)
        tr_f[r:, r:] = np.eye(d)
        tr_terms.append((var, tr_f))
        caps.append((rotation.conj().T @ sigma[np.ix_(c, c)] @ rotation, r, var))
    prob.require_eq(sdp.ScalarExpr(-1.0, tuple(tr_terms)))
    prob.require_geq(sdp.ScalarExpr(-math.sqrt(max(0.0, 1.0 - eps * eps)), tuple(z_terms)))
    if lam is None:
        prob.add_var("t", 1)
        prob.objective = sdp.trace_functional("t", 1)
    for sb, r, var in caps:
        if lam is None:
            cap = sdp.AffineExpr.zero(len(sb)).plus_kron(sb, "t")
        else:
            cap = const_expr(sdp, 2.0**lam * sb)
        prob.require_psd(cap.plus_var(var, -1.0) if r is None else cap.plus_subblock(var, r, -1.0))
    return prob


def gf2_hash(matrix: np.ndarray, offset: np.ndarray, index: int) -> int:
    """The value of ``index`` under x -> M x + o over GF(2), one bit at a
    time: output bit r is the parity of o_r and of the input bits j with
    M[r, j] = 1 (bit 0 is the least significant, in and out)."""
    value = 0
    for r in range(len(offset)):
        bit = int(offset[r])
        for j in range(matrix.shape[1]):
            bit ^= int(matrix[r, j]) & ((index >> j) & 1)
        value |= bit << r
    return value


def gf2_hash_many(matrix: np.ndarray, offset: np.ndarray, indices) -> np.ndarray:
    """``gf2_hash`` over an array of indices, one output bit and one input
    bit at a time."""
    indices = np.asarray(indices, dtype=np.int64)
    value = np.zeros(len(indices), dtype=np.int64)
    for r in range(len(offset)):
        bit = np.full(len(indices), int(offset[r]), dtype=np.int64)
        for j in range(matrix.shape[1]):
            if matrix[r, j]:
                bit ^= (indices >> j) & 1
        value |= bit << r
    return value


def unique_row_signatures(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each distinct row, id of each row) of a 2-d integer
    array, the distinct rows numbered in lexicographic order, by
    ``np.unique(axis=0)``."""
    _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


class PerMessageStageDecoder:
    """Decode branches of one centralised link, built per (coin, wire message).

    The reference for ``compose._StageDecoder``, which builds one decoder per
    (coin, fiber signature): here every wire message's fiber is found by
    brute force over the index space and decoded on its own, and a class's
    indices are summed message by message, each fiber tested in ascending
    index order.  ``build`` maps one test sequence to its branch operators
    (the library's ``sequential_kraus`` on a one-row stack) and ``abort``
    is the library's abort symbol, passed in so that this module imports
    nothing from the library.
    """

    def __init__(self, stage, codebook, d_tail: int, build, abort: str):
        self.stage = stage
        self.codebook = codebook
        self.d_tail = d_tail
        self.build = build
        self.abort = abort
        self.hashes = stage.hash_scheme.apply_many(np.arange(2**stage.log_l))
        self._cache: dict[tuple[int, int], list] = {}

    def branches(self, k: int, message: int) -> list:
        key = (k, message)
        if key not in self._cache:
            self._cache[key] = self._message_branches(k, message)
        return self._cache[key]

    def _message_branches(self, k: int, message: int) -> list:
        fiber = [int(i) for i in np.flatnonzero(self.hashes == message)]
        offsets = self.codebook.offsets(k)
        cls = [int(np.searchsorted(offsets, i, side="right") - 1) for i in fiber]
        classes = [self.codebook.alphabet[c] for c in cls]
        if len(fiber) == 1:
            return [(classes[0], None)]
        kraus = self.build([self.stage.tests[k, c] for c in cls])
        eye_tail = np.eye(self.d_tail, dtype=complex)
        return [(sym, np.kron(op, eye_tail)) for sym, op in zip(classes + [self.abort], kraus)]

    def apply(self, k: int, class_idx: int, op: np.ndarray) -> dict:
        lo, hi = self.codebook.index_range(k, class_idx)
        messages, counts = np.unique(self.hashes[lo:hi], return_counts=True)
        out: dict = {}
        for m, cnt in zip(messages, counts):
            for sym, branch_op in self.branches(k, int(m)):
                post = op if branch_op is None else branch_op @ op @ branch_op.conj().T
                out[sym] = out.get(sym, 0.0) + cnt * post
        return out


def register_link_test(i_hyp_cq, state, slots, eps: float) -> tuple:
    """I_H^eps of a link state taken on its whole (K', B) register.

    The reference for ``entropies.i_hyp_cq`` with slots, which tests each
    symbol on its slot alone: here symbol j's block is placed in slot
    ``slots[j]`` of a direct sum of max(slots) + 1 slots, and ``i_hyp_cq``
    (the library's, passed in, called without slots) tests the dense
    register state.  Returns (value, alpha, beta, {symbol: the test's
    block on the symbol's slot}).
    """
    d = state.blocks.shape[-1]
    n = (max(slots) + 1) * d
    blocks = np.zeros((len(slots), n, n), dtype=complex)
    for j, k in enumerate(slots):
        blocks[j, k * d : (k + 1) * d, k * d : (k + 1) * d] = state.blocks[j]
    value, test = i_hyp_cq(type(state)(state.symbols, blocks), eps)
    per_symbol = {
        s: block[k * d : (k + 1) * d, k * d : (k + 1) * d]
        for s, k, block in zip(state.symbols, slots, test.tests)
    }
    return value, test.achieved_alpha, test.achieved_beta, per_symbol


@dataclasses.dataclass
class BlockView:
    """One nice coin block of a compressed family, keyed by class (one
    symbol per link): each class's per-index element, E-operator and index
    count, and the block's abort element and its E-operator."""

    gammas: dict
    env: dict
    counts: dict
    gamma0: np.ndarray
    env0: np.ndarray


def family_blocks(family) -> dict:
    """A ``BlockView`` per nice block of a ``CompressedFamily``, keyed by the
    block's coins, rebuilt from the family's rows one row at a time.  A
    class's index count is the product over links of its symbol's count in
    the block's coin, read off the codebooks."""
    out = {}
    for b, coins in enumerate(family.block_coins.tolist()):
        blk = out[tuple(coins)] = BlockView({}, {}, {}, family.gamma0[b], family.env0[b])
        for r in np.flatnonzero(family.row_block == b):
            symbols = family.class_symbols[family.row_class[r]].tolist()
            cls = tuple(cb.alphabet[s] for cb, s in zip(family.codebooks, symbols))
            blk.gammas[cls], blk.env[cls] = family.gammas[r], family.env[r]
            blk.counts[cls] = math.prod(
                int(cb.counts[k, s]) for cb, k, s in zip(family.codebooks, coins, symbols)
            )
    return out


def unassisted_output_blocks(family, rho_e, scenario, join, abort: str) -> dict:
    """Coin-averaged output of the compressed measurement when every link
    carries its whole message index: subnormalised E-operators keyed by the
    outcomes of the links ``scenario`` keeps.

    The reference for ``compose.simulate_unassisted``: each (x, y) class of
    a nice coin block adds its count times its E-operator to the key of its
    outcomes, and the abort element and every non-nice block (``rho_e``)
    add to the abort key, all weighted by 1/(K1 K2).  ``join`` is the
    library's ``join_symbol`` and ``abort`` its abort symbol, passed in so
    that this module imports nothing from the library.
    """

    def key(x: str, y: str) -> str:
        if scenario.x_link_on and scenario.y_link_on:
            return join(x, y)
        return x if scenario.x_link_on else y

    cb_x, cb_y = family.codebooks
    w_blk = 1.0 / (cb_x.coins * cb_y.coins)
    blocks, out = family_blocks(family), {}
    for coins in itertools.product(range(cb_x.coins), range(cb_y.coins)):
        blk = blocks.get(coins)
        terms = [(key(abort, abort), rho_e if blk is None else blk.env0)]
        if blk is not None:
            terms += [(key(*c), blk.counts[c] * op) for c, op in blk.env.items()]
        for k, op in terms:
            out[k] = out.get(k, 0.0) + w_blk * op
    return out


def centralised_output_blocks(family, rho_e, decoders, join, abort: str) -> dict:
    """Every scenario's output of the two-link centralised protocol, by
    scenario name: subnormalised E-operators keyed by the decoded outcomes
    of the links the scenario keeps.

    The reference for the accumulator of ``compose.centralised_protocol``,
    written out as three decode paths: each (x, y) class of a nice coin
    block is decoded on X alone, on Y alone, and on Y after each X branch.
    A scenario that drops a link adds its posts times that link's class
    count in its coin, and the abort element and every non-nice block
    (``rho_e``) add to the abort key; every term is weighted by 1/(K1 K2).
    ``decoders`` holds the X and Y decoders, each with
    ``apply(coin, class index, op)`` as ``PerMessageStageDecoder`` has it;
    ``join`` and ``abort`` are as for ``unassisted_output_blocks``, and the
    blocks are ``family_blocks``' view of the family's rows.
    """
    dec_x, dec_y = decoders
    cb_x, cb_y = family.codebooks
    w_blk = 1.0 / (cb_x.coins * cb_y.coins)
    blocks = family_blocks(family)
    out: dict = {"both": {}, "x_only": {}, "y_only": {}}

    def add(name: str, key: str, op) -> None:
        out[name][key] = out[name].get(key, 0.0) + w_blk * op

    for k1, k2 in itertools.product(range(cb_x.coins), range(cb_y.coins)):
        blk = blocks.get((k1, k2))
        abort_op = rho_e if blk is None else blk.env0
        add("both", join(abort, abort), abort_op)
        add("x_only", abort, abort_op)
        add("y_only", abort, abort_op)
        if blk is None:
            continue
        for (x, y), sigma in blk.env.items():
            xi, yi = cb_x.alphabet.index(x), cb_y.alphabet.index(y)
            n_x, n_y = int(cb_x.counts[k1][xi]), int(cb_y.counts[k2][yi])
            for sym_x, op in dec_x.apply(k1, xi, sigma).items():
                add("x_only", sym_x, n_y * op)
                for sym_y, post in dec_y.apply(k2, yi, op).items():
                    add("both", join(sym_x, sym_y), post)
            for sym_y, op in dec_y.apply(k2, yi, sigma).items():
                add("y_only", sym_y, n_x * op)
    return out


def _components_by_size(comps):
    """The components ``comps``, (pair k, sorted index array) each, one
    entry per size, ascending: the pairs k, the (m, size) index arrays and
    the (m, size, size) fancy index of the components of that size."""
    for size in sorted({len(c) for _, c in comps}):
        k = np.array([k for k, c in comps if len(c) == size])
        ix = np.array([c for _, c in comps if len(c) == size])
        yield k, ix, (k[:, None, None], ix[:, :, None], ix[:, None, :])


def cut_reference(ent, pairs) -> tuple[np.ndarray, np.ndarray, list]:
    """The cut of ``entropies._ball_blocks`` (``ent`` the library's
    entropies module) one component size at a time: each pair's
    components by breadth-first search (``support_components_oracle``),
    one stacked ``eigh`` of sigma per size across the pairs, rho taken to
    its eigenvectors in descending order with those of eigenvalue at most
    1e-12 zeroed, and sigma to its spectrum, those eigenvalues set to 0.
    Returns the cut rho (n, d, d), sigma's spectra (n, d), each component
    on its own indices, and the cut's components as (pair k, sorted index
    array): each component's first indices, as many as it keeps
    eigenvalues, then each of its others alone."""
    rho, sigma = ent._real_parts(*(np.stack(mats) for mats in zip(*pairs)))
    comps = [(k, c) for k in range(len(rho)) for c in support_components_oracle([rho[k], sigma[k]])]
    cut, diag = np.zeros_like(rho), np.zeros(rho.shape[:2])
    for k, ix, at in _components_by_size(comps):
        w, v = np.linalg.eigh(sigma[at])
        w, v = np.where(w > 1e-12, w, 0.0)[:, ::-1], v[..., ::-1]
        v = v * (w > 0.0)[:, None, :]
        cut[at] = np.swapaxes(v.conj(), -1, -2) @ rho[at] @ v
        diag[k[:, None], ix] = w
    parts = []
    for k, c in comps:
        kept = int(np.count_nonzero(diag[k, c]))
        parts += [(k, c[:kept])] * (kept > 0) + [(k, c[i : i + 1]) for i in range(kept, len(c))]
    return cut, diag, parts


def ball_blocks_reference(ent, pairs) -> tuple[list, float]:
    """``entropies._ball_blocks`` one component and one sub-block at a
    time (``ent`` is the library's entropies module): the cut and its
    components (``cut_reference``), one stacked ``eigh`` of the cut rho
    per component size, then each pair's rotated sigma split again by
    breadth-first search, sub-block by sub-block in order of least index,
    each one's field from ``ent._real_parts`` on its own.  Returns a plain
    list of (Lambda_b, sigma_b) in that order, and s0; the library holds
    the same sub-blocks stacked by (r, d, field).  The library rotates
    each cut component whole, kernel directions included, where this
    rotates its part on supp(sigma_c) and each kernel direction alone:
    the same bits when sigma_c has no kernel, the same sub-blocks up to
    round-off and a basis of each degenerate eigenspace when it has one."""
    cut, diag, parts = cut_reference(ent, pairs)
    eigs, rotated = np.zeros(cut.shape[:2]), np.zeros_like(cut)
    for k, ix, at in _components_by_size(parts):
        w, u = np.linalg.eigh(cut[at])
        u = u[..., ::-1]
        eigs[k[:, None], ix] = w[:, ::-1]
        rotated[at] = (np.swapaxes(u.conj(), -1, -2) * diag[k[:, None], ix][:, None, :]) @ u
    blocks, free_mass = [], 0.0
    for eig, rot in zip(eigs, rotated):
        for sub in support_components_oracle([rot]):
            kept = eig[sub] > 1e-12
            (sb,) = ent._real_parts(rot[sub[:, None], sub])
            if kept.any():
                blocks.append((eig[sub][kept], sb))
            else:
                free_mass += float(np.trace(sb).real)
    return blocks, free_mass


def lower_end_from_expressions(
    prob, slack: np.ndarray, norm: float, within: dict | None = None
) -> float:
    """log2 of the least t that a slack-side vector allows on a min t
    program by weak duality, evaluated from the program's own expressions:
    with t pinned at 1 and at 2 (``pin_variable``; at 0 the caps would
    lose sigma's field), ``_witness`` gives gap(1), gap(2) and |r| (which
    does not depend on t), so t's coefficient is held = gap(1) - gap(2),
    and a feasible point whose free reals have norm at most ``norm`` has
    t >= (gap(1) + held - norm |r|) / held.  -inf when held or that
    numerator is not positive.

    With ``within`` (the "primal" p and "gap" g of a recheck), the least t
    over the points whose recheck residuals are at most those, not only
    the feasible ones: F is then at least -(p mass + g |nu|_1) on them
    (``_witness``), which is taken off the numerator; ``norm`` must bound
    their free reals (``norm_within``)."""
    gap1, resid, mass, nu_mass = _witness(pin_variable(prob, "t", 1.0), slack)
    gap2 = _witness(pin_variable(prob, "t", 2.0), slack)[0]
    held = gap1 - gap2
    low = gap1 + held - norm * resid
    if within is not None:
        low -= within["primal"] * mass + within["gap"] * nu_mass
    return math.log2(low / held) if low > 0.0 and held > 0.0 else -math.inf


def norm_within(ball, within: dict | None = None) -> float:
    """A bound on the norm of the free reals of every point of ``ball``'s
    min t program, in either pose of ``sdp_reference.capped_ball``, whose
    recheck residuals are at most ``within`` ("primal" p and "gap" g; 0
    without it), t apart: sqrt(2 z + m^2), with L = sum_b Tr Lambda_b,
    R = sum_b r_b and D = sum_b d_b.  Every PSD block is at least -p I,
    w >= -p and sum_b Tr rho'_b + w <= 1 + g, so sum_b Tr rho'_b <=
    1 + g + p, and |rho'_b|_F <= |rho'_b + p I|_F + p sqrt(d_b) <=
    Tr rho'_b + p (d_b + sqrt(d_b)): the rho' and w reals have norm at most
    m = 1 + g + p (sum_b (d_b + sqrt(d_b)) + 2).  G_b + p I PSD gives
    |Z_b|_F^2 <= Tr(Lambda_b + p I) Tr(rho'_b,kk + p I), whose sum over b
    is at most z = (L + p R)(1 + g + p (D + 1)), counted twice by Z's rvec
    coordinates.  At p = g = 0 it is sqrt(1 + 2 L)."""
    p, g = (0.0, 0.0) if within is None else (within["primal"], within["gap"])
    dims = [(sigma.shape[0], sigma.shape[-1]) for sigma in ball.sigma]
    big_l = sum(float(eigs.sum()) for eigs in ball.eigs)
    big_r = sum(eigs.size for eigs in ball.eigs)
    big_d = sum(n * d for n, d in dims)
    m = 1.0 + g + p * (sum(n * (d + math.sqrt(d)) for n, d in dims) + 2.0)
    return math.sqrt(2.0 * (big_l + p * big_r) * (1.0 + g + p * (big_d + 1.0)) + m * m)


def ball_certificates(ref, ball, res, eps: float) -> tuple[dict, float]:
    """Both ends of a min t solve (``povmcomp.sdp.BallSolve`` of ``ball``,
    closed-form or interior-point) from the expressions of its program
    (``ref`` the generic layer of ``sdp_reference``): ``ref.capped_ball``
    rebuilt from the ball at ``eps``, posed as the library poses it
    (``on_support``).  Returns ``ref._recheck``'s residuals of the point
    with t pinned at 2^v, v = log2 of its t (``pin_variable``), and
    ``lower_end_from_expressions`` of its dual laid out in slack order
    (``ref.slack_of``) with the norm bound sqrt(1 + 2 sum_b Tr Lambda_b)."""
    prob = ref.capped_ball(ref.plain(ball.eigs, ball.sigma, ball.free_mass), eps, on_support=True)
    pinned = pin_variable(prob, "t", 2.0 ** math.log2(res.point.t))
    primal = ref._recheck(pinned, ref.assignment_of(ball, res.point))
    lower = lower_end_from_expressions(prob, ref.slack_of(ball, res.dual), norm_within(ball))
    return primal, lower


def lifted_to_full_pose(ref, ball, point) -> dict[str, np.ndarray]:
    """A block-form point of ``ball`` (``povmcomp.sdp.BallPoint``) as an
    assignment of ``ref.capped_ball``'s (r + d) pose (``ref`` the generic
    layer of ``sdp_reference``), at the
    same t, w and rho'_b: Z_b = Lambda_b^(1/2) K rho'_+^(1/2), rho'_+ the
    PSD part of rho'_b and K = V U^H from the ``svd``
    U S V^H of rho'_+^(1/2) E Lambda_b^(1/2) (E the first r columns of
    I_d), the contraction that makes Re Tr' Z_b = Tr S =
    F(Lambda_b, rho'_+,rr) the most Watrous's (r + d) block allows.  So
    [[Lambda_b, Z_b], [Z_b^H, rho'_+]] is PSD, and G_b differs from it by
    rho'_b - rho'_+ in its trailing block."""
    assign = {}
    for i, (eigs, rho) in enumerate(zip(ref._per_block(ball.eigs), ref._per_block(point.rho))):
        r, d = len(eigs), len(rho)
        w, v = np.linalg.eigh(rho)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        u, _, vh = np.linalg.svd(root[:, :r] * np.sqrt(eigs), full_matrices=False)
        z = np.sqrt(eigs)[:, None] * (vh.conj().T @ u.conj().T) @ root
        g = np.zeros((r + d, r + d), dtype=np.result_type(z, rho))
        g[np.arange(r), np.arange(r)] = eigs
        g[:r, r:], g[r:, :r], g[r:, r:] = z, z.conj().T, rho
        assign[f"ball{i}"] = g
    if ball.free_mass > 0.0:
        assign["w"] = np.full((1, 1), point.w)
    assign["t"] = np.full((1, 1), point.t)
    return assign


def truncated_to_support_pose(ref, ball, assign: dict) -> dict[str, np.ndarray]:
    """An assignment of ``ref.capped_ball``'s (r + d) pose (``ref`` the
    generic layer of ``sdp_reference``) as one of the library's pose
    (``on_support``): Z_b's columns past r set
    to 0 on each sub-block the library poses on its support.  Its PSD
    blocks there, the leading 2r x 2r block of G_b and rho'_b, are
    principal blocks of the (r + d) G_b, and every other row is the same,
    so its recheck residuals are at most the (r + d) point's."""
    out = dict(assign)
    for i, (eigs, sigma) in enumerate(zip(ref._per_block(ball.eigs), ref._per_block(ball.sigma))):
        r, d = len(eigs), len(sigma)
        if r < d:
            g = assign[f"ball{i}"].copy()
            g[:r, 2 * r :] = 0.0
            g[2 * r :, :r] = 0.0
            out[f"ball{i}"] = g
    return out
