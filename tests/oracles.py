"""Independent reference computations used to check the library.

Nothing in here imports povmcomp: oracles are deliberately written against
plain numpy/scipy (or brute force) so that a bug in the library cannot hide
inside its own test harness.
"""

from __future__ import annotations

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


def fidelity_oracle(a: np.ndarray, b: np.ndarray) -> float:
    sa = scipy.linalg.sqrtm(a)
    inner = scipy.linalg.sqrtm(sa @ b @ sa)
    return float(np.real(np.trace(inner)))


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

    For fixed lambda the best achievable fidelity max sum sqrt(p_i q_i)
    subject to q_i <= 2^lambda s_i, sum q = 1 has the water-filling form
    q_i = min(cap_i, t p_i); feasibility of lambda is F_max >= sqrt(1-eps^2).
    """
    target = math.sqrt(max(0.0, 1.0 - eps * eps))

    def best_fidelity(lam):
        cap = 2.0**lam * s
        if cap.sum() < 1.0 - 1e-12:
            return -1.0  # cannot even normalize
        lo_t, hi_t = 0.0, 2.0 / max(p.min() if p.min() > 0 else 1e-18, 1e-18)
        while np.minimum(cap, hi_t * p).sum() < 1.0 - 1e-15:
            hi_t *= 2.0
        for _ in range(200):
            mid = (lo_t + hi_t) / 2
            if np.minimum(cap, mid * p).sum() >= 1.0:
                hi_t = mid
            else:
                lo_t = mid
        q = np.minimum(cap, hi_t * p)
        q = q * (1.0 / q.sum())
        q = np.minimum(q, cap)  # renormalization can only shrink entries
        return float(np.sqrt(p * q).sum())

    lo, hi = -40.0, 60.0
    if best_fidelity(hi) < target - 1e-12:
        return math.inf
    for _ in range(200):
        mid = (lo + hi) / 2
        if best_fidelity(mid) >= target - 1e-13:
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


def shannon_entropy(p) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def mutual_information(joint: np.ndarray) -> float:
    """I(A:B) of a classical joint probability table."""
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    return shannon_entropy(pa) + shannon_entropy(pb) - shannon_entropy(joint)


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


def _herm_to_rvec_single(mat: np.ndarray) -> np.ndarray:
    d = mat.shape[0]
    iu, di = np.triu_indices(d, k=1), np.diag_indices(d)
    s = math.sqrt(2.0)
    upper = mat[iu]
    return np.concatenate([np.real(mat[di]), s * np.real(upper), s * np.imag(upper)])


def _rvec_to_herm_single(vec: np.ndarray, d: int) -> np.ndarray:
    iu, di = np.triu_indices(d, k=1), np.diag_indices(d)
    s = math.sqrt(2.0)
    out = np.zeros((d, d), dtype=complex)
    out[di] = vec[:d]
    n_off = iu[0].size
    upper = vec[d : d + n_off] / s + 1j * vec[d + n_off :] / s
    out[iu] = upper
    out[(iu[1], iu[0])] = upper.conj()
    return out


def _cone_block_groups(session) -> tuple[dict[int, list[int]], int]:
    """Iterate offsets of the PSD blocks grouped by dimension, and the
    position where the scalar inequalities start."""
    groups: dict[int, list[int]] = {}
    pos = session.n_vars
    for d in session.block_dims:
        groups.setdefault(d, []).append(pos)
        pos += d * d
    return groups, pos


def project_cone_per_block(session, y: np.ndarray) -> np.ndarray:
    """Cone projection of an SDP iterate, one matrix conversion per block."""
    groups, scalar_pos = _cone_block_groups(session)
    out = y.copy()
    for d, offsets in groups.items():
        stack = np.stack([_rvec_to_herm_single(y[o : o + d * d], d) for o in offsets])
        w, v = np.linalg.eigh(stack)
        np.clip(w, 0.0, None, out=w)
        clipped = (v * w[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
        for o, mat in zip(offsets, clipped):
            out[o : o + d * d] = _herm_to_rvec_single(mat)
    out[scalar_pos:] = np.clip(y[scalar_pos:], 0.0, None)
    return out


def cone_violation_per_block(session, y: np.ndarray) -> float:
    """Largest cone violation of an SDP iterate, one conversion per block."""
    groups, scalar_pos = _cone_block_groups(session)
    viol = 0.0
    for d, offsets in groups.items():
        stack = np.stack([_rvec_to_herm_single(y[o : o + d * d], d) for o in offsets])
        w = np.linalg.eigvalsh(stack)
        viol = max(viol, -float(w.min()))
    if y.size > scalar_pos:
        viol = max(viol, -float(np.min(y[scalar_pos:], initial=0.0)))
    return viol


def project_affine_factored(session, y: np.ndarray) -> np.ndarray:
    """Affine projection of an SDP iterate in three steps, from the session's
    G and constants: x = H^-1 (x0 + G^T (s0 - c)) with H = I + G^T G, the
    equality correction x -= W S^-1 (G_eq x + c_eq) with W = H^-1 G_eq^T and
    S = G_eq W, and s = G x + c."""
    g, g_eq, n = session.g_graph, session.g_eq, session.n_vars
    h_inv = np.linalg.inv(np.eye(n) + g.T @ g)
    x = h_inv @ (y[:n] + g.T @ (y[n:] - session.c_graph))
    if session.n_eq:
        w = h_inv @ g_eq.T
        x = x - w @ (np.linalg.inv(g_eq @ w) @ (g_eq @ x + session.c_eq))
    return np.concatenate([x, g @ x + session.c_graph])


def probe_columns_per_basis(session) -> np.ndarray:
    """The SDP's linear map probed one rvec basis vector at a time: each
    column is the problem's linear part at one basis matrix, all other
    variables zero."""
    prob = session.prob
    cols = np.zeros((session.n_graph + session.n_eq, session.n_vars))
    assign = {lab: np.zeros((d, d), dtype=complex) for lab, (_, d) in session.var_offsets.items()}
    for lab, (o, d) in session.var_offsets.items():
        for k in range(d * d):
            basis = np.zeros(d * d)
            basis[k] = 1.0
            assign[lab] = _rvec_to_herm_single(basis, d)
            rows = [_herm_to_rvec_single(e.evaluate_linear(assign)) for e in prob.psd_constraints]
            scalars = [
                sum(float(np.real(np.sum(f.conj() * assign[var]))) for var, f in expr.terms)
                for expr in prob.inequalities + prob.equalities
            ]
            cols[:, o + k] = np.concatenate(rows + [np.array(scalars)])
            assign[lab] = np.zeros((d, d), dtype=complex)
    return cols


def farkas_from_expressions(prob, slack: np.ndarray) -> tuple[float, float]:
    """(gap, |r|) of the Farkas witness an SDP's slack-side vector gives,
    evaluated from the problem's own expressions.

    ``slack`` holds one rvec per PSD constraint, then one weight per
    inequality.  Each block is projected onto the PSD cone by its
    eigenvalues, the weights are clipped at 0, and the whole is normalised
    to w.  With F(x) = sum_b <W_b, E_b(x)> + sum_i w_i g_i(x) + sum_j nu_j h_j(x)
    over the PSD expressions E_b, inequalities g_i and equalities h_j,
    gap = -F(0) and r is F's gradient over the rvec coordinates, probed one
    basis matrix at a time, with nu the least-squares multiplier.
    """
    blocks, pos = [], 0
    for expr in prob.psd_constraints:
        w, v = np.linalg.eigh(_rvec_to_herm_single(slack[pos : pos + expr.dim**2], expr.dim))
        blocks.append((v * np.clip(w, 0.0, None)) @ v.conj().T)
        pos += expr.dim**2
    weights = np.clip(slack[pos:], 0.0, None)
    norm = math.sqrt(sum(float(np.sum(np.abs(b) ** 2)) for b in blocks) + weights @ weights)
    blocks, weights = [b / norm for b in blocks], weights / norm

    def cone_part(assign, linear):
        val = sum(
            float(np.real(np.sum(b.conj() * (e.evaluate_linear(assign) if linear else e.const))))
            for b, e in zip(blocks, prob.psd_constraints)
        )
        for wi, iq in zip(weights, prob.inequalities):
            val += wi * (iq.evaluate(assign) - iq.const if linear else iq.const)
        return val

    assign = {lab: np.zeros((d, d), dtype=complex) for lab, d in prob.variables}
    grad, eq_rows = [], []
    for lab, d in prob.variables:
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


class PerMessageStageDecoder:
    """Decode branches of one centralised link, built per (coin, wire message).

    The reference for ``compose._StageDecoder``, which builds one decoder per
    (coin, fiber signature): here every wire message's fiber is found by
    brute force over the index space and decoded on its own, and a class's
    indices are summed message by message.  ``build`` is the library's
    ``SequentialDecoder.build`` and ``abort`` its abort symbol, passed in so
    that this module imports nothing from the library.
    """

    def __init__(self, stage, codebook, d_tail: int, build, abort: str):
        self.stage = stage
        self.codebook = codebook
        self.d_tail = d_tail
        self.build = build
        self.abort = abort
        self.hashes = stage.hash_scheme.apply_many(np.arange(stage.ensemble.messages))
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
        per_index = {str(i): tests.get((k, sym), zero) for i, sym in zip(fiber, classes)}
        decoder = self.build([str(i) for i in fiber], per_index)
        eye_tail = np.eye(self.d_tail, dtype=complex)
        out = []
        for name, s, u in zip(
            decoder.bucket_order, decoder.sequential_ops, decoder.correction_unitaries
        ):
            out.append((classes[fiber.index(int(name))], np.kron(u.conj().T @ s, eye_tail)))
        out.append((self.abort, np.kron(decoder.failure_op, eye_tail)))
        return out

    def apply(self, k: int, class_idx: int, op: np.ndarray) -> dict:
        lo, hi = self.codebook.index_range(k, class_idx)
        messages, counts = np.unique(self.hashes[lo:hi], return_counts=True)
        out: dict = {}
        for m, cnt in zip(messages, counts):
            for sym, branch_op in self.branches(k, int(m)):
                post = op if branch_op is None else branch_op @ op @ branch_op.conj().T
                out[sym] = out.get(sym, 0.0) + cnt * post
        return out
