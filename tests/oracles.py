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


def psd_sqrt_oracle(op: np.ndarray) -> np.ndarray:
    """V sqrt(max(W, 0)) V^dag from the ``eigh`` of op's Hermitian part."""
    w, v = np.linalg.eigh((op + op.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


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
    """Bracket of the least t with ``alpha_strict(t, 0) >= target``: the
    Neyman-Pearson threshold bisection with a fixed 120 halvings, even after
    the float64 midpoint has stopped moving."""
    t_lo, t_hi = 0.0, 1.0
    for _ in range(200):
        if alpha_strict(t_hi, 0.0) >= target:
            break
        t_lo, t_hi = t_hi, t_hi * 4.0
    for _ in range(120):
        mid = (t_lo + t_hi) / 2
        if alpha_strict(mid, 0.0) >= target:
            t_hi = mid
        else:
            t_lo = mid
    return t_lo, t_hi


class PerBlockNP:
    """The Neyman-Pearson search of a block-diagonal pair (rho, sigma), one
    block at a time: one ``eigh`` and two weight contractions per block per
    probe.  The reference for ``entropies._Blocks`` and ``_np_threshold``,
    which stack the blocks; ``threshold`` follows the same steps (kernel
    test, bisection bracket, border weight) with the fixed 120-halving
    bisection of ``np_bisect_fixed``.  Inputs must have eps > 1e-14."""

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

    def alpha_strict(self, t: float, tol: float) -> float:
        return sum(float(w_r[d > tol].sum()) for d, _, w_r, _ in self.spectra(t))

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
    then the failure branch sqrt(I - sum_j S_j^dag S_j) from ``eigh``; a
    lone candidate gets [I, 0].  The per-sequence reference for the
    library's stacked ``sequential_kraus``."""
    eye = np.eye(tests[0].shape[0], dtype=complex)
    if len(tests) == 1:
        return [eye, np.zeros_like(eye)]
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
    evaluated from the problem's own expressions.

    ``slack`` holds one rvec per PSD constraint, then one weight per
    inequality; ``clip_slack_per_block`` makes it the cone element w.  With F(x) = sum_b <W_b, E_b(x)> + sum_i w_i g_i(x) + sum_j nu_j h_j(x)
    over the PSD expressions E_b, inequalities g_i and equalities h_j,
    gap = -F(0) and r is F's gradient over the Hermitian rvec coordinates,
    probed one basis matrix at a time, with nu the least-squares
    multiplier.  On a real problem too, so a witness from its real slack is
    tested against every Hermitian point, not only the real symmetric ones.
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
    return gap, float(np.linalg.norm(grad + eq_rows @ nu))


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
        self.hashes = stage.hash_scheme.apply_many(np.arange(codebook.messages))
        self._cache: dict[tuple[int, int], list] = {}

    def branches(self, k: int, message: int) -> list:
        key = (k, message)
        if key not in self._cache:
            self._cache[key] = self._message_branches(k, message)
        return self._cache[key]

    def _message_branches(self, k: int, message: int) -> list:
        fiber = [int(i) for i in np.flatnonzero(self.hashes == message)]
        offsets = self.codebook.offsets(k)
        alphabet = self.codebook.alphabet
        classes = [alphabet[int(np.searchsorted(offsets, i, side="right") - 1)] for i in fiber]
        if len(fiber) == 1:
            return [(classes[0], None)]
        tests = self.stage.tests
        d_b = next(iter(tests.values())).shape[0]
        zero = np.zeros((d_b, d_b), dtype=complex)
        kraus = self.build([tests.get((k, sym), zero) for sym in classes])
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
    d = state.blocks[state.symbols[0]].shape[0]
    n = (max(slots) + 1) * d
    blocks = {}
    for s, k in zip(state.symbols, slots):
        blocks[s] = np.zeros((n, n), dtype=complex)
        blocks[s][k * d : (k + 1) * d, k * d : (k + 1) * d] = state.blocks[s]
    value, test = i_hyp_cq(type(state)(state.symbols, dict(state.weights), blocks), eps)
    per_symbol = {
        s: test.per_symbol[s][k * d : (k + 1) * d, k * d : (k + 1) * d]
        for s, k in zip(state.symbols, slots)
    }
    return value, test.achieved_alpha, test.achieved_beta, per_symbol


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
    out: dict = {}
    for coins in itertools.product(range(cb_x.coins), range(cb_y.coins)):
        blk = family.blocks.get(coins)
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
    ``join`` and ``abort`` are as for ``unassisted_output_blocks``.
    """
    dec_x, dec_y = decoders
    cb_x, cb_y = family.codebooks
    w_blk = 1.0 / (cb_x.coins * cb_y.coins)
    out: dict = {"both": {}, "x_only": {}, "y_only": {}}

    def add(name: str, key: str, op) -> None:
        out[name][key] = out[name].get(key, 0.0) + w_blk * op

    for k1, k2 in itertools.product(range(cb_x.coins), range(cb_y.coins)):
        blk = family.blocks.get((k1, k2))
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


def ball_blocks_reference(ent, pairs) -> tuple[list, float]:
    """``entropies._ball_blocks`` one component and one sub-block at a
    time (``ent`` is the library's entropies module): each pair's
    components by breadth-first search (``support_components_oracle``),
    one stacked ``eigh`` per component size across the pairs, then each
    pair's rotated sigma split again, sub-block by sub-block in order of
    least index, each one's field from ``ent._real_parts`` on its own."""
    rho, sigma = ent._real_parts(*(np.stack(mats) for mats in zip(*pairs)))
    comps = [
        (k, c) for k in range(len(rho)) for c in support_components_oracle([rho[k], sigma[k]])
    ]
    eigs, rotated = np.zeros(rho.shape[:2]), np.zeros_like(sigma)
    for size in sorted({len(c) for _, c in comps}):
        k = np.array([k for k, c in comps if len(c) == size])
        ix = np.array([c for _, c in comps if len(c) == size])
        at = k[:, None, None], ix[:, :, None], ix[:, None, :]
        w, u = np.linalg.eigh(rho[at])
        u = u[..., ::-1]
        eigs[k[:, None], ix] = w[:, ::-1]
        rotated[at] = np.swapaxes(u.conj(), -1, -2) @ sigma[at] @ u
    blocks, free_mass = [], 0.0
    for eig, rot in zip(eigs, rotated):
        for sub in support_components_oracle([rot]):
            kept = eig[sub] > 1e-12
            (sb,) = ent._real_parts(rot[sub[:, None], sub])
            if kept.any():
                blocks.append(ent._BallBlock(f"ball{len(blocks)}", eig[sub][kept], sb))
            else:
                free_mass += float(np.trace(sb).real)
    return blocks, free_mass


def water_fill_certificates(ent, sdp, fill) -> tuple[dict, float, float, float]:
    """Both certificates of a classical value's closed-form record
    (``entropies._water_fill``; ``ent`` and ``sdp`` are the library's
    modules), from the expressions of its min t program: ``_capped_ball``
    rebuilt from the record's (lambda_b, sigma_b, s0, eps), t pinned
    (``pin_variable``).  Returns ``sdp._recheck``'s residuals of the point
    at t = 2^v, and the (gap, |r|) of ``farkas_from_expressions`` at
    ``fill.t_low`` for the multipliers laid out in slack order (each
    W_b = v_b v_b^T as its rvec, then the inequality weights), with the
    norm of that slack: the scalar gap over it is the oracle's gap."""
    blocks = [
        ent._BallBlock(f"ball{i}", np.array([lam]), np.array([[sig]]))
        for i, (lam, sig) in enumerate(zip(fill.lam, fill.sig))
    ]
    prob = ent._capped_ball((blocks, fill.free_mass), fill.eps)
    free = "w" in prob.variables
    assign = {
        blk.var: np.array([[lam, z], [z, x]])
        for blk, lam, z, x in zip(blocks, fill.lam, fill.z, fill.x)
    }
    if free:
        assign["w"] = np.full((1, 1), fill.w)
    primal = sdp._recheck(pin_variable(prob, "t", 2.0 ** math.log2(fill.t_cap)), assign)
    fid, floor, caps, free_cap = fill.ineq
    psd = [_herm_to_rvec_single(np.outer(v, v), real=True) for v in fill.v]
    weights = [[fid], [floor] * free, np.broadcast_to(caps, len(blocks)), [free_cap] * free]
    slack = np.concatenate(psd + weights)
    gap, resid = farkas_from_expressions(pin_variable(prob, "t", fill.t_low), slack)
    return primal, gap, resid, float(np.linalg.norm(slack))
