"""Small dense semidefinite feasibility engine.

Problems are posed over named Hermitian variables with affine Hermitian
expressions required PSD plus scalar equalities/inequalities.  The solver
alternates (Douglas-Rachford splitting) between the affine subspace, via an
exact least-squares projection with a cached factorization, and the PSD
cone, via eigenvalue clipping.  Everything is plain numpy, deterministic,
and warm-startable across the outer bisections that drive it.

The iterate stores each Hermitian block by its isometric real vector
(``herm_to_rvec``/``rvec_to_herm``, which broadcast over leading axes).
The cone projection is batched over the blocks: the session precomputes,
per block dimension d, one (n_blocks, d*d) index array into the iterate,
so each dimension costs one gather, one stacked eigendecomposition and
one scatter, whatever the number of blocks.

Both verdicts are certified.  "feasible" needs a shadow point whose
constraints ``_recheck`` evaluates again from the problem's expressions.
"infeasible" needs a Farkas witness built from the Douglas-Rachford
displacement pa - pk, which converges to the least-norm element of
cl(A - K) (Banjac, Goulart, Stellato, Boyd, JOTA 2019; Liu, Ryu, Yin,
Math. Program. 2019): a cone element w with gap > 0 and
|G^T w + G_eq^T nu| <= WITNESS_RATIO * gap, which proves that no feasible
point has norm below 1 / WITNESS_RATIO (see ``Session.solve``).  A solve
that earns neither verdict within ``max_iter`` reports "maxIterations".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg as la


# an "infeasible" verdict needs |G^T w + G_eq^T nu| <= WITNESS_RATIO * gap
WITNESS_RATIO = 0.1

_INDEX_CACHE: dict[int, tuple] = {}


def _herm_indices(d: int):
    cached = _INDEX_CACHE.get(d)
    if cached is None:
        iu = np.triu_indices(d, k=1)
        cached = (iu, np.diag_indices(d))
        _INDEX_CACHE[d] = cached
    return cached


def herm_to_rvec(mat: np.ndarray) -> np.ndarray:
    """Isometric real parametrization of Hermitian matrices: (..., d, d) -> (..., d^2)."""
    d = mat.shape[-1]
    iu, di = _herm_indices(d)
    s = math.sqrt(2.0)
    upper = mat[..., iu[0], iu[1]]
    return np.concatenate(
        [np.real(mat[..., di[0], di[1]]), s * np.real(upper), s * np.imag(upper)], axis=-1
    )


def rvec_to_herm(vec: np.ndarray, d: int) -> np.ndarray:
    """Inverse of ``herm_to_rvec``: (..., d^2) -> (..., d, d)."""
    iu, di = _herm_indices(d)
    s = math.sqrt(2.0)
    out = np.zeros(vec.shape[:-1] + (d, d), dtype=complex)
    out[..., di[0], di[1]] = vec[..., :d]
    n_off = iu[0].size
    upper = vec[..., d : d + n_off] / s + 1j * vec[..., d + n_off :] / s
    out[..., iu[0], iu[1]] = upper
    out[..., iu[1], iu[0]] = upper.conj()
    return out


@dataclass(frozen=True)
class Term:
    """One affine contribution coeff * map(X_var)."""

    var: str
    kind: str  # "id" | "kron" | "marginal_product" | "subblock_conj"
    coeff: float = 1.0
    left: np.ndarray | None = None
    split: tuple[int, ...] | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "id":
            return self.coeff * x
        if self.kind == "kron":
            return self.coeff * np.kron(self.left, x)
        if self.kind == "marginal_product":
            d1, d2 = self.split
            x4 = x.reshape(d1, d2, d1, d2)
            y = np.einsum("aiaj->ij", x4)
            return self.coeff * np.kron(self.left, y)
        if self.kind == "subblock_conj":
            # trailing principal subblock, rotated back by the fixed unitary
            (i0,) = self.split
            sub = x[i0:, i0:]
            return self.coeff * (self.left @ sub @ self.left.conj().T)
        raise ValueError(f"unknown term kind {self.kind}")


@dataclass
class AffineExpr:
    """const + sum of terms; evaluates to a Hermitian matrix of size dim."""

    dim: int
    const: np.ndarray
    terms: list[Term] = field(default_factory=list)

    @staticmethod
    def const_expr(mat: np.ndarray) -> "AffineExpr":
        mat = la.as_matrix(mat)
        return AffineExpr(mat.shape[0], mat.astype(complex), [])

    @staticmethod
    def zero(dim: int) -> "AffineExpr":
        return AffineExpr(dim, np.zeros((dim, dim), dtype=complex), [])

    def plus_var(self, var: str, coeff: float = 1.0) -> "AffineExpr":
        self.terms.append(Term(var, "id", coeff))
        return self

    def plus_kron(self, left: np.ndarray, var: str, coeff: float = 1.0) -> "AffineExpr":
        self.terms.append(Term(var, "kron", coeff, left=np.asarray(left, dtype=complex)))
        return self

    def plus_marginal_product(
        self, left: np.ndarray, var: str, split: tuple[int, int], coeff: float = 1.0
    ) -> "AffineExpr":
        self.terms.append(
            Term(var, "marginal_product", coeff, left=np.asarray(left, dtype=complex), split=split)
        )
        return self

    def plus_subblock(
        self, var: str, start: int, rotation: np.ndarray, coeff: float = 1.0
    ) -> "AffineExpr":
        self.terms.append(
            Term(var, "subblock_conj", coeff, left=np.asarray(rotation, dtype=complex), split=(start,))
        )
        return self

    def evaluate(self, assign: dict[str, np.ndarray]) -> np.ndarray:
        out = self.const.copy()
        for t in self.terms:
            out = out + t.apply(assign[t.var])
        return out

    def evaluate_linear(self, assign: dict[str, np.ndarray]) -> np.ndarray:
        out = np.zeros_like(self.const)
        for t in self.terms:
            out = out + t.apply(assign[t.var])
        return out


@dataclass(frozen=True)
class ScalarExpr:
    """const + sum_i Re Tr[F_i^dag X_i]; real-valued affine functional."""

    const: float
    terms: tuple[tuple[str, np.ndarray], ...]

    def evaluate(self, assign: dict[str, np.ndarray]) -> float:
        val = self.const
        for var, f in self.terms:
            val += float(np.real(np.sum(f.conj() * assign[var])))
        return val


def trace_functional(var: str, dim: int, coeff: float = 1.0, const: float = 0.0) -> ScalarExpr:
    return ScalarExpr(const, ((var, coeff * np.eye(dim, dtype=complex)),))


@dataclass
class SDProblem:
    variables: list[tuple[str, int]] = field(default_factory=list)
    psd_constraints: list[AffineExpr] = field(default_factory=list)
    equalities: list[ScalarExpr] = field(default_factory=list)
    inequalities: list[ScalarExpr] = field(default_factory=list)  # each >= 0
    objective: ScalarExpr | None = None  # minimized when present

    def add_var(self, label: str, dim: int) -> str:
        if any(lab == label for lab, _ in self.variables):
            raise ValueError(f"duplicate variable {label!r}")
        self.variables.append((label, dim))
        return label

    def require_psd(self, expr: AffineExpr) -> None:
        self.psd_constraints.append(expr)

    def require_eq(self, expr: ScalarExpr) -> None:
        self.equalities.append(expr)

    def require_geq(self, expr: ScalarExpr) -> None:
        self.inequalities.append(expr)

    def var_dim(self, label: str) -> int:
        for lab, d in self.variables:
            if lab == label:
                return d
        raise KeyError(label)


@dataclass
class SDPConfig:
    max_iter: int = 20000
    tol: float = 1e-8
    check_every: int = 20
    max_var_rvec: int = 6000


@dataclass
class SDPResult:
    status: str  # "feasible" | "infeasible" | "maxIterations"
    assignment: dict[str, np.ndarray]
    residuals: dict[str, float]
    iterations: int
    warm: np.ndarray | None = None
    witness: tuple[np.ndarray, np.ndarray] | None = None  # (w, nu) of an "infeasible" verdict


class Session:
    """Prepared solver state for one problem structure.

    The linear map is probed into a dense matrix once; re-solving after
    ``update_constants`` (same structure, new constant parts, as in a
    bisection over one scalar) reuses the cached factorization.
    """

    def __init__(self, prob: SDProblem, config: SDPConfig | None = None):
        self.prob = prob
        self.cfg = config or SDPConfig()
        self.var_offsets: dict[str, tuple[int, int]] = {}
        off = 0
        for lab, d in prob.variables:
            self.var_offsets[lab] = (off, d)
            off += d * d
        self.n_vars = off
        if off > self.cfg.max_var_rvec:
            raise ValueError(f"problem too large for the dense engine ({off} var reals)")
        self.block_dims = [e.dim for e in prob.psd_constraints]
        self.n_graph = sum(d * d for d in self.block_dims) + len(prob.inequalities)
        self._index_blocks()
        self.n_eq = len(prob.equalities)
        self._build_matrices()
        self.update_constants(prob)

    # -- structure ---------------------------------------------------------
    def _columns(self) -> np.ndarray:
        cols = np.zeros((self.n_graph + self.n_eq, self.n_vars))
        assign = {lab: np.zeros((d, d), dtype=complex) for lab, (_, d) in self.var_offsets.items()}
        for lab, (o, d) in self.var_offsets.items():
            for k in range(d * d):
                basis = np.zeros(d * d)
                basis[k] = 1.0
                assign[lab] = rvec_to_herm(basis, d)
                cols[:, o + k] = self._apply_linear(assign)
                assign[lab] = np.zeros((d, d), dtype=complex)
        return cols

    def _apply_linear(self, assign: dict[str, np.ndarray]) -> np.ndarray:
        rows = []
        for expr in self.prob.psd_constraints:
            rows.append(herm_to_rvec(expr.evaluate_linear(assign)))
        ineq_vals = [
            sum(float(np.real(np.sum(f.conj() * assign[var]))) for var, f in ineq.terms)
            for ineq in self.prob.inequalities
        ]
        eq_vals = [
            sum(float(np.real(np.sum(f.conj() * assign[var]))) for var, f in eq.terms)
            for eq in self.prob.equalities
        ]
        return np.concatenate(rows + [np.array(ineq_vals), np.array(eq_vals)])

    def _build_matrices(self) -> None:
        full = self._columns()
        self.g_graph = full[: self.n_graph]
        self.g_eq = full[self.n_graph :]
        h = np.eye(self.n_vars) + self.g_graph.T @ self.g_graph
        self.h_inv = np.linalg.inv(h)
        if self.n_eq:
            w = self.h_inv @ self.g_eq.T
            self.w = w
            self.s_inv = np.linalg.inv(self.g_eq @ w)
        else:
            self.w = None
            self.s_inv = None
        # least-squares multiplier of the infeasibility witness: nu = nu_map @ w
        # minimizes |G^T w + G_eq^T nu| (G_eq has full row rank, as s_inv needs)
        if self.n_eq:
            self.nu_map = -np.linalg.solve(self.g_eq @ self.g_eq.T, self.g_eq @ self.g_graph.T)
        else:
            self.nu_map = np.zeros((0, self.n_graph))

    def update_constants(self, prob: SDProblem) -> None:
        """Swap constant parts; the linear structure must be unchanged."""
        self.prob = prob
        rows = [herm_to_rvec(e.const) for e in prob.psd_constraints]
        rows.append(np.array([iq.const for iq in prob.inequalities]))
        self.c_graph = np.concatenate(rows) if self.n_graph else np.zeros(0)
        self.c_eq = np.array([eq.const for eq in prob.equalities])

    # -- projections -------------------------------------------------------
    def project_affine(self, y: np.ndarray) -> np.ndarray:
        """Exact projection onto {(x, s): G x + c = s, G_eq x + c_eq = 0}."""
        x0, s0 = y[: self.n_vars], y[self.n_vars :]
        rhs = x0 + self.g_graph.T @ (s0 - self.c_graph)
        x = self.h_inv @ rhs
        if self.n_eq:
            corr = self.s_inv @ (self.g_eq @ x + self.c_eq)
            x = x - self.w @ corr
        s = self.g_graph @ x + self.c_graph
        return np.concatenate([x, s])

    def _index_blocks(self) -> None:
        """Group the PSD blocks by dimension: one (n_blocks, d*d) array of
        iterate positions per dimension, so the cone projection gathers,
        projects and scatters every block of one size at once."""
        offsets: dict[int, list[int]] = {}
        pos = self.n_vars
        for d in self.block_dims:
            offsets.setdefault(d, []).append(pos)
            pos += d * d
        self._cone_index = {
            d: np.array(offs)[:, None] + np.arange(d * d) for d, offs in offsets.items()
        }
        self._scalar_pos = pos

    def project_cone(self, y: np.ndarray) -> np.ndarray:
        out = y.copy()
        for d, idx in self._cone_index.items():
            w, v = np.linalg.eigh(rvec_to_herm(y[idx], d))
            np.clip(w, 0.0, None, out=w)
            clipped = (v * w[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
            out[idx] = herm_to_rvec(clipped)
        out[self._scalar_pos :] = np.clip(y[self._scalar_pos :], 0.0, None)
        return out

    def cone_violation(self, y: np.ndarray) -> float:
        viol = 0.0
        for d, idx in self._cone_index.items():
            w = np.linalg.eigvalsh(rvec_to_herm(y[idx], d))
            viol = max(viol, -float(w.min()))
        if y.size > self._scalar_pos:
            viol = max(viol, -float(np.min(y[self._scalar_pos :], initial=0.0)))
        return viol

    def get_vars(self, y: np.ndarray) -> dict[str, np.ndarray]:
        return {lab: rvec_to_herm(y[o : o + d * d], d) for lab, (o, d) in self.var_offsets.items()}

    @property
    def total(self) -> int:
        return self.n_vars + self.n_graph

    # -- infeasibility witness -----------------------------------------------
    def witness(self, displacement: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Farkas witness (w, nu, gap, |r|) from a displacement pa - pk.

        w is the cone part of the displacement's negated slack (PSD blocks
        and inequality slots), normalised; nu is its least-squares
        multiplier; r = G^T w + G_eq^T nu and gap = -(<c, w> + <c_eq, nu>).
        For every feasible x, 0 <= <w, G x + c> = <r, x> - gap, so
        |x| >= gap / |r|.
        """
        neg = np.zeros(self.total)
        neg[self.n_vars :] = -displacement[self.n_vars :]
        w = self.project_cone(neg)[self.n_vars :]
        norm = float(np.linalg.norm(w))
        if norm > 0.0:
            w /= norm
        nu = self.nu_map @ w
        r = self.g_graph.T @ w + self.g_eq.T @ nu
        gap = -float(self.c_graph @ w + self.c_eq @ nu)
        return w, nu, gap, float(np.linalg.norm(r))

    # -- main loop ----------------------------------------------------------
    def solve(self, warm: np.ndarray | None = None) -> SDPResult:
        """Douglas-Rachford feasibility solve with two certified verdicts.

        Every ``check_every`` iterations the shadow point ``project_affine(y)``
        is tested: "feasible" when its cone violation is at most ``tol`` and
        ``_recheck`` confirms it from the problem's own expressions.
        Otherwise the displacement pa - pk of the iteration, which converges
        to the least-norm element of cl(A - K) (nonzero exactly when the
        affine set A and the cone K are strictly separated), gives a
        ``witness``; "infeasible" is returned only when gap > 0 and
        |r| <= WITNESS_RATIO * gap, which proves that no feasible point
        has norm below 1 / WITNESS_RATIO = 10.  Every program built in
        ``entropies`` has its feasible set inside norm 3, so there the
        verdict is exact: the ball variables are PSD with
        sum_c Tr G_c = Tr rho + Tr rho' = 2, and the dense tilde program's
        rho' and Z = Re Z + i Im Z have norm at most 1 each.  A solve with
        neither verdict runs to ``max_iter`` and returns "maxIterations".
        """
        cfg = self.cfg
        y = warm.copy() if warm is not None and warm.size == self.total else np.zeros(self.total)
        it = 0
        while it < cfg.max_iter:
            pa = self.project_affine(y)
            pk = self.project_cone(2 * pa - y)
            y = y + pk - pa
            it += 1
            if it % cfg.check_every == 0 or it == cfg.max_iter:
                shadow = self.project_affine(y)
                viol = self.cone_violation(shadow)
                if viol <= cfg.tol:
                    assign = self.get_vars(shadow)
                    res = _recheck(self.prob, assign)
                    if res["primal"] <= 10 * cfg.tol and res["gap"] <= 10 * cfg.tol:
                        return SDPResult("feasible", assign, res, it, warm=y)
                w, nu, gap, resid = self.witness(pa - pk)
                if gap > 0.0 and resid <= WITNESS_RATIO * gap:
                    assign = self.get_vars(shadow)
                    res = _recheck(self.prob, assign)
                    res["witness_gap"], res["witness_resid"] = gap, resid
                    return SDPResult("infeasible", assign, res, it, witness=(w, nu))
        shadow = self.project_affine(y)
        assign = self.get_vars(shadow)
        return SDPResult("maxIterations", assign, _recheck(self.prob, assign), it, warm=None)


def _recheck(prob: SDProblem, assign: dict[str, np.ndarray]) -> dict[str, float]:
    """Independent constraint evaluation of a candidate assignment."""
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


def solve(prob: SDProblem, config: SDPConfig | None = None, warm: np.ndarray | None = None) -> SDPResult:
    """Feasibility solve; see module docstring for the method.

    When ``prob.objective`` is set, an outer bisection on the objective level
    set is performed and the best feasible assignment returned.
    """
    cfg = config or SDPConfig()
    if prob.objective is not None:
        return _minimize(prob, cfg)
    return Session(prob, cfg).solve(warm=warm)


def _minimize(prob: SDProblem, cfg: SDPConfig, value_tol: float = 1e-4) -> SDPResult:
    obj = prob.objective
    base = SDProblem(
        list(prob.variables),
        list(prob.psd_constraints),
        list(prob.equalities),
        list(prob.inequalities),
        None,
    )
    free = solve(base, cfg)
    if free.status != "feasible":
        return free
    hi = obj.evaluate(free.assignment)
    best = free

    def feasible_at(level):
        # objective <= level encoded as the inequality level - obj >= 0
        capped = SDProblem(
            list(prob.variables),
            list(prob.psd_constraints),
            list(prob.equalities),
            list(prob.inequalities)
            + [ScalarExpr(level - obj.const, tuple((v, -f) for v, f in obj.terms))],
            None,
        )
        return solve(capped, cfg)

    lo, width = hi, 1.0
    for _ in range(40):
        res = feasible_at(lo - width)
        if res.status != "feasible":
            lo = lo - width
            break
        best = res
        lo -= width
        width *= 2
    while hi - lo > value_tol:
        mid = (lo + hi) / 2
        res = feasible_at(mid)
        if res.status == "feasible":
            best, hi = res, min(mid, obj.evaluate(res.assignment))
        else:
            lo = mid
    return best
