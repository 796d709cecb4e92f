"""One-shot entropic quantities: smooth max entropy, hypothesis testing
relative entropy, max relative entropy (plain and smoothed), smooth max
information, and the von Neumann suite.

Conventions: all logarithms are base 2, rates are bits.  The smoothing ball
is the purified-distance ball over normalized states.  The hypothesis
testing quantity is the Neyman-Pearson minimization of the type-II error
at type-I error at most eps; optimal tests threshold ``t rho - sigma`` with
fractional weight on the boundary eigenspace so alpha hits 1 - eps exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import qobjects as qo
from . import sdp

BISECT_TOL_BITS = 1e-3


class SolverError(RuntimeError):
    """Raised when a smoothing SDP fails to converge; carries residuals."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


def _validate_eps(eps: float) -> float:
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"smoothing parameter {eps} outside [0, 1)")
    return float(eps)


# ---------------------------------------------------------------------------
# smooth max entropy (classical)


@dataclass
class HmaxSolution:
    value: float
    lam: dict[str, float]
    subdistribution: dict[str, float]  # P restricted to the kept support, subnormalized


def smooth_max_entropy_atoms(
    atoms: list[tuple[float, float]], eps: float
) -> tuple[float, list[tuple[float, float]]]:
    """Greedy optimizer of the max-entropy LP over weighted atoms.

    ``atoms`` is a list of (probability, multiplicity); multiplicities let
    callers fold exchangeable symbols (e.g. codebook classes) into one atom.
    Returns ``(log2 of the optimal sum, kept counts per atom)`` where a kept
    count may be fractional on the single boundary atom.
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
    return math.log2(lam_sum), [(atoms[i][0], kept[i]) for i in range(len(atoms))]


def h_max_smooth(p: qo.Distribution, eps: float) -> HmaxSolution:
    """Smooth max entropy of a distribution with the greedy LP optimizer.

    The returned subdistribution keeps P on the surviving symbols (dropped
    low-probability prefix removed, fractional boundary symbol retained).
    """
    eps = _validate_eps(eps)
    # canonical tie break: sort by (probability, symbol)
    idx = sorted(range(len(p.alphabet)), key=lambda i: (p.probs[i], p.alphabet[i]))
    atoms = [(float(p.probs[i]), 1.0) for i in idx]
    value, kept = smooth_max_entropy_atoms(atoms, eps)
    lam = {}
    sub: dict[str, float] = {}
    for (prob, kept_frac), i in zip(kept, idx):
        sym = p.alphabet[i]
        lam[sym] = kept_frac
        if kept_frac > 1e-12 and prob > 0:
            sub[sym] = prob
    sub = {s: sub[s] for s in p.alphabet if s in sub}  # restore alphabet order
    return HmaxSolution(value, lam, sub)


# ---------------------------------------------------------------------------
# hypothesis testing relative entropy (Neyman-Pearson)


@dataclass
class NPTest:
    operator: np.ndarray | None
    achieved_alpha: float
    achieved_beta: float
    per_symbol: dict[str, np.ndarray] | None = None


class _Blocks:
    """Block-diagonal pair (rho, sigma) as subnormalized block lists."""

    def __init__(self, rho_blocks: list[np.ndarray], sigma_blocks: list[np.ndarray]):
        self.rho = [la.as_matrix(b) for b in rho_blocks]
        self.sigma = [la.as_matrix(b) for b in sigma_blocks]

    def spectra(self, t: float):
        out = []
        for r, s in zip(self.rho, self.sigma):
            d, v = np.linalg.eigh(t * r - s)
            w_r = np.real(np.einsum("ij,jk,ki->i", v.conj().T, r, v))
            w_s = np.real(np.einsum("ij,jk,ki->i", v.conj().T, s, v))
            out.append((d, v, w_r, w_s))
        return out

    def alpha_strict(self, t: float, tol: float) -> float:
        return sum(
            float(w_r[d > tol].sum()) for d, _, w_r, _ in self.spectra(t)
        )


def _np_bisect(blocks: _Blocks, target: float) -> tuple[float, float]:
    """Bracket [t_lo, t_hi] of the least t with alpha_strict(t) >= target.

    Halves until the float64 midpoint stops falling strictly inside the
    bracket, at most 120 times; further halvings would only probe t_lo or
    t_hi again and leave the bracket as it is.
    """
    t_lo, t_hi = 0.0, 1.0
    for _ in range(200):
        if blocks.alpha_strict(t_hi, 0.0) >= target:
            break
        t_lo, t_hi = t_hi, t_hi * 4.0
    for _ in range(120):
        mid = (t_lo + t_hi) / 2
        if not t_lo < mid < t_hi:
            break
        if blocks.alpha_strict(mid, 0.0) >= target:
            t_hi = mid
        else:
            t_lo = mid
    return t_lo, t_hi


def _np_threshold(blocks: _Blocks, eps: float):
    """Optimal NP test; returns (beta, per-block test operators, alpha)."""
    target = 1.0 - eps
    # beta = 0 reachable: test supported on ker(sigma)
    ker_alpha = 0.0
    for r, s in zip(blocks.rho, blocks.sigma):
        w, v = np.linalg.eigh(s)
        kcols = v[:, np.abs(w) <= 1e-12]
        if kcols.size:
            proj = kcols @ kcols.conj().T
            ker_alpha += float(np.trace(proj @ r).real)
    if ker_alpha >= target - 1e-12:
        tests = []
        for r, s in zip(blocks.rho, blocks.sigma):
            w, v = np.linalg.eigh(s)
            kcols = v[:, np.abs(w) <= 1e-12]
            tests.append(kcols @ kcols.conj().T if kcols.size else np.zeros_like(s))
        return math.inf, tests, ker_alpha

    if eps <= 1e-14:
        tests = [la.support_projector(r) for r in blocks.rho]
        alpha = sum(float(np.trace(p @ r).real) for p, r in zip(tests, blocks.rho))
        beta = sum(float(np.trace(p @ s).real) for p, s in zip(tests, blocks.sigma))
        return beta, tests, alpha

    scale = sum(float(np.trace(s).real) for s in blocks.sigma) + 1.0
    t_lo, t_hi = _np_bisect(blocks, target)
    t_star = t_hi
    gap = max(t_hi - t_lo, 1e-15) * (1.0 + scale)
    spectra = blocks.spectra(t_star)
    alpha_strict, kernel_w = 0.0, 0.0
    for d, _, w_r, _ in spectra:
        alpha_strict += float(w_r[d > gap].sum())
        kernel_w += float(w_r[np.abs(d) <= gap].sum())
    c = 0.0
    if kernel_w > 1e-15:
        c = min(max((target - alpha_strict) / kernel_w, 0.0), 1.0)
    tests, alpha, beta = [], 0.0, 0.0
    for d, v, w_r, w_s in spectra:
        take = d > gap
        border = np.abs(d) <= gap
        weights = take.astype(float) + c * border.astype(float)
        tests.append((v * weights) @ v.conj().T)
        alpha += float((w_r * weights).sum())
        beta += float((w_s * weights).sum())
    return beta, tests, alpha


def _np_test(
    rho_blocks: list, sigma_blocks: list, eps: float, symbols=None
) -> tuple[float, NPTest]:
    """The Neyman-Pearson value and test of a block-diagonal pair.

    With ``symbols`` the per-block tests are keyed by symbol in
    ``per_symbol``; without, the pair is one block and its test is
    ``operator``.
    """
    beta, tests, alpha = _np_threshold(_Blocks(rho_blocks, sigma_blocks), _validate_eps(eps))
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


def i_hyp_cq(cq: qo.CQState, eps: float) -> tuple[float, NPTest]:
    """Hypothesis-testing mutual information of a cq state.

    The optimal test is block diagonal over the classical register; the
    per-symbol components 0 <= Pi_x <= I are exposed for sequential decoders.
    """
    avg = cq.average_block()
    dist = cq.classical_distribution()
    weights = [dist.prob(s) for s in cq.symbols]
    rho_blocks = [p * cq.blocks[s] for p, s in zip(weights, cq.symbols)]
    return _np_test(rho_blocks, [p * avg for p in weights], eps, cq.symbols)


def i_hyp_weighted_cq(
    symbols: list[str], weights: list[float], blocks: list[np.ndarray], eps: float
) -> tuple[float, NPTest]:
    """i_hyp_cq for an explicit weighted block list (weights may fold counts)."""
    avg = sum(w * b for w, b in zip(weights, blocks))
    rho_blocks = [w * b for w, b in zip(weights, blocks)]
    return _np_test(rho_blocks, [w * avg for w in weights], eps, symbols)


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


def _support_components(mats: list[np.ndarray], tol: float = 1e-12) -> list[np.ndarray]:
    """Connected components of the union support pattern (index arrays)."""
    d = mats[0].shape[0]
    mask = np.zeros((d, d), dtype=bool)
    for m in mats:
        mask |= np.abs(m) > tol
    mask |= mask.T
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(d):
        for j in range(i + 1, d):
            if mask[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    return [np.array(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0])]


@dataclass
class _BallBlock:
    """How one component's rho' is encoded inside the smoothing program.

    ``var`` holds a PSD matrix G on supp(rho_c) (+) C^d whose pinned
    top-left corner is rho_c's positive spectrum; rho' is the trailing
    subblock rotated back to the original basis.  The reduction keeps the
    fidelity block strictly feasible even when rho_c is rank deficient.
    For zero blocks G is rho' itself (``rank`` 0, no rotation needed).
    """

    var: str
    rank: int
    rotation: np.ndarray


def _entry_pin(var: str, dim: int, i: int, j: int, value: float, imag: bool) -> sdp.ScalarExpr:
    f = np.zeros((dim, dim), dtype=complex)
    if imag:
        f[i, j] = 0.5j
        f[j, i] = -0.5j
    else:
        f[i, j] = 0.5
        f[j, i] += 0.5
    return sdp.ScalarExpr(-value, ((var, f),))


def _fidelity_ball_problem(
    rho_blocks: list[np.ndarray], target_f: float
) -> tuple[sdp.SDProblem, list[_BallBlock]]:
    """The smoothing program's fidelity ball: rho' PSD and close to rho.

    Per component c the program holds one PSD variable G_c on
    supp(rho_c) (+) C^d with the top-left corner pinned to rho_c's spectrum
    and Z = the off-diagonal corner; sum_c Re Tr Z_c >= target_f encodes the
    fidelity constraint and rho' (the trailing subblock) is normalized.
    """
    prob = sdp.SDProblem()
    infos: list[_BallBlock] = []
    tr_terms, z_terms = [], []
    for i, rb in enumerate(rho_blocks):
        d = rb.shape[0]
        w, u = np.linalg.eigh(rb)
        keep = w > 1e-12
        r = int(keep.sum())
        if r == 0:
            var = prob.add_var(f"ball{i}", d)
            prob.require_psd(sdp.AffineExpr.zero(d).plus_var(var))
            infos.append(_BallBlock(var, 0, np.eye(d, dtype=complex)))
            tr_terms.append((var, np.eye(d, dtype=complex)))
            continue
        rotation = np.concatenate([u[:, keep][:, ::-1], u[:, ~keep]], axis=1)
        eigs = w[keep][::-1]
        var = prob.add_var(f"ball{i}", r + d)
        prob.require_psd(sdp.AffineExpr.zero(r + d).plus_var(var))
        for a in range(r):
            prob.require_eq(_entry_pin(var, r + d, a, a, float(eigs[a]), imag=False))
            for b in range(a + 1, r):
                prob.require_eq(_entry_pin(var, r + d, a, b, 0.0, imag=False))
                prob.require_eq(_entry_pin(var, r + d, a, b, 0.0, imag=True))
        z_f = np.zeros((r + d, r + d), dtype=complex)
        for a in range(r):
            z_f[a, r + a] = 0.5
            z_f[r + a, a] = 0.5
        z_terms.append((var, z_f))
        tr_f = np.zeros((r + d, r + d), dtype=complex)
        tr_f[r:, r:] = np.eye(d)
        tr_terms.append((var, tr_f))
        infos.append(_BallBlock(var, r, rotation))
    prob.require_eq(sdp.ScalarExpr(-1.0, tuple(tr_terms)))
    prob.require_geq(sdp.ScalarExpr(-float(target_f), tuple(z_terms)))
    return prob, infos


def _capped_ball(rho, sigma, eps: float, lam: float | None) -> sdp.SDProblem:
    """The program of D_max^eps(rho || sigma): rho' in the fidelity ball of
    rho, split into the components of the joint support pattern, with each
    component's cap 2^lam sigma_c - rho'_c PSD.

    With ``lam`` None the cap is t sigma_c - rho'_c with t a 1x1 variable,
    and the objective is min t, whose optimum is 2^(D_max^eps).
    """
    comps = _support_components([rho, sigma])
    rho_blocks = [rho[np.ix_(c, c)] for c in comps]
    prob, infos = _fidelity_ball_problem(rho_blocks, math.sqrt(max(0.0, 1.0 - eps * eps)))
    if lam is None:
        prob.add_var("t", 1)
        prob.objective = sdp.trace_functional("t", 1)
    for c, info in zip(comps, infos):
        sb = sigma[np.ix_(c, c)]
        if lam is None:
            cap = sdp.AffineExpr.zero(len(c)).plus_kron(sb, "t")
        else:
            cap = sdp.AffineExpr.const_expr(2.0**lam * sb)
        if info.rank == 0:
            cap.plus_var(info.var, -1.0)
        else:
            cap.plus_subblock(info.var, info.rank, info.rotation, -1.0)
        prob.require_psd(cap)
    return prob


def d_max_smooth(rho, sigma, eps: float) -> float:
    """Smoothed max relative entropy over the purified-distance ball.

    One ``sdp.minimize`` solve of min t over ``_capped_ball(..., None)``
    gives v = log2 t, and v is returned only with two certificates:

    - v is feasible: ``sdp.recheck`` accepts the solve's rho' in the
      fixed-lambda program ``_capped_ball(..., v)``;
    - v - BISECT_TOL_BITS is infeasible: the solve's dual z, projected onto
      the cone and normalised, is a Farkas witness (``sdp.witness_fires``)
      of the fixed-lambda program at v - BISECT_TOL_BITS.

    So the value lies in (v - BISECT_TOL_BITS, v].  Raises SolverError when
    the solve ends without an optimum or either certificate fails.
    """
    eps = _validate_eps(eps)
    rho = la.assert_density(rho)
    sigma = la.assert_psd(sigma)
    if eps == 0.0:
        return d_max(rho, sigma)
    res = sdp.minimize(_capped_ball(rho, sigma, eps, None))
    if res.status != "optimal":
        raise SolverError(f"D_max^eps solve ended {res.status}", res.residuals)
    value = math.log2(float(res.assignment["t"][0, 0].real))
    ok, checked = sdp.recheck(_capped_ball(rho, sigma, eps, value), res.assignment)
    if not ok:
        raise SolverError(f"D_max^eps = {value} not certified feasible", checked)
    lo = sdp.Program(_capped_ball(rho, sigma, eps, value - BISECT_TOL_BITS))
    _, _, gap, resid = lo.farkas(res.dual[0])
    if not sdp.witness_fires(gap, resid):
        raise SolverError(
            f"D_max^eps = {value} - {BISECT_TOL_BITS} not certified infeasible",
            {"witness_gap": gap, "witness_resid": resid},
        )
    return value


def i_max_cq(cq: qo.CQState, eps: float) -> float:
    """i_max_smooth of a ``CQState``, its classical register first."""
    return i_max_smooth(cq.dense(), (len(cq.symbols), cq.quantum_dim), eps)


def i_max_smooth(rho_ab, dims: tuple[int, int], eps: float) -> float:
    """Smooth max information against the fixed product of the marginals."""
    rho_ab = la.assert_density(rho_ab)
    da, db = dims
    lay = la.layout(("A", da), ("B", db))
    sigma = la.tensor(
        la.partial_trace(rho_ab, lay, ["A"]), la.partial_trace(rho_ab, lay, ["B"])
    )
    return d_max_smooth(rho_ab, sigma, eps)


# ---------------------------------------------------------------------------
# von Neumann quantities


def entropy(rho) -> float:
    w = np.linalg.eigvalsh(la.assert_psd(rho))
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def relative_entropy(rho, sigma) -> float:
    rho = la.assert_psd(rho)
    sigma = la.assert_psd(sigma)
    proj = la.support_projector(sigma)
    if float(np.trace((np.eye(len(rho)) - proj) @ rho).real) > 1e-10:
        return math.inf
    wr, vr = np.linalg.eigh(rho)
    ws, vs = np.linalg.eigh(sigma)
    log_r = (vr * np.log2(np.clip(wr, 1e-300, None))) @ vr.conj().T
    log_s = (vs * np.log2(np.clip(ws, 1e-300, None))) @ vs.conj().T
    val = np.trace(rho @ (log_r - log_s)).real
    return float(val)


def von_neumann_suite(rho_ab, dims: tuple[int, int]) -> dict[str, float]:
    """Entropies and mutual information of a bipartite state, base 2."""
    rho_ab = la.assert_density(rho_ab)
    da, db = dims
    lay = la.layout(("A", da), ("B", db))
    rho_a = la.partial_trace(rho_ab, lay, ["A"])
    rho_b = la.partial_trace(rho_ab, lay, ["B"])
    h_a, h_b, h_ab = entropy(rho_a), entropy(rho_b), entropy(rho_ab)
    return {
        "H_A": h_a,
        "H_B": h_b,
        "H_AB": h_ab,
        "I_AB": h_a + h_b - h_ab,
        "H_A_given_B": h_ab - h_b,
        "H_B_given_A": h_ab - h_a,
        "D_AB_vs_product": relative_entropy(rho_ab, la.tensor(rho_a, rho_b)),
    }
