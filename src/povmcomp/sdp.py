"""Small dense semidefinite engine: one primal-dual interior-point method.

Problems are posed over named Hermitian variables with affine Hermitian
expressions required PSD plus scalar equalities/inequalities.  ``Program``
compiles a problem once into s = G x + c in K, G_eq x + c_eq = 0 over the
rvec coordinates of its variables (K the PSD cones and the orthant of the
inequalities; each Hermitian block is stored by its isometric real vector,
``herm_to_rvec``/``rvec_to_herm``).  Set-up probes the linear map G once
per (constraint, variable), over the stacked basis
``rvec_to_herm(np.eye(d*d), d)`` (``Term.apply`` broadcasts over a leading
axis).

``minimize`` is the one solver: a primal-dual interior-point method with
Nesterov-Todd scaling and Mehrotra's predictor-corrector for a problem with
an objective.  It serves ``entropies.d_max_smooth`` (and with it
``i_max_smooth``, the protocol thresholds and the one-shot region), whose
min t program it solves in one call.  A solve's result carries two
certificates, which the caller checks on the program at a fixed value:

- A point is feasible when ``recheck`` accepts it: ``_recheck`` evaluates
  its constraints again from the problem's own expressions.  ``minimize``
  returns "optimal" only for a primal point that passes it.
- A problem is infeasible when a Farkas witness passes ``witness_fires``:
  a cone element w with gap > 0 and |G^T w + G_eq^T nu| <= WITNESS_RATIO * gap
  (``Program.farkas``), which proves that no feasible point has norm below
  1 / WITNESS_RATIO.  ``d_max_smooth`` builds w from the dual z of its
  min t solve and tests it on the program just below the optimum.

A solve that reaches no certified optimum within ``IPM_MAX_ITER`` steps,
or whose duality gap grows past degree / ``GAP_TOL``, returns
"maxIterations".

Fixed settings: a point counts as feasible when its constraints are met to
``10 * FEASIBLE_TOL``; ``minimize`` stops at a relative gap and dual
residual of ``GAP_TOL`` and steps ``STEP_TO_BOUNDARY`` of the way to the
cone's boundary; ``MAX_VAR_REALS`` caps the variables' real dimension n,
since ``minimize`` takes the SVD of G_eq with its n x n right factor for the
null-space basis and solves a Schur matrix of up to that size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg as la


# an "infeasible" verdict needs |G^T w + G_eq^T nu| <= WITNESS_RATIO * gap
WITNESS_RATIO = 0.1
FEASIBLE_TOL = 1e-8
MAX_VAR_REALS = 6000
# interior-point solve: stop at this relative gap and dual residual, take
# this share of the step to the cone's boundary, give up after so many steps
GAP_TOL = 1e-6
STEP_TO_BOUNDARY = 0.99
IPM_MAX_ITER = 100

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
    kind: str  # "id" | "kron" | "subblock_conj"
    coeff: float = 1.0
    left: np.ndarray | None = None
    start: int = 0  # first row and column of the subblock

    def apply(self, x: np.ndarray) -> np.ndarray:
        """coeff * map(x) for x of shape (..., d, d), broadcast over leading axes."""
        if self.kind == "id":
            return self.coeff * x
        if self.kind == "kron":
            return self.coeff * _kron(self.left, x)
        if self.kind == "subblock_conj":
            # trailing principal subblock, rotated back by the fixed unitary
            sub = x[..., self.start :, self.start :]
            return self.coeff * (self.left @ sub @ self.left.conj().T)
        raise ValueError(f"unknown term kind {self.kind}")


def _kron(left: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.kron(left, x) for x of shape (..., d, d), with the same products
    (einsum's complex products can differ from np.kron's by an ulp)."""
    n, d = left.shape[0], x.shape[-1]
    prod = left[:, None, :, None] * x[..., None, :, None, :]
    return prod.reshape(x.shape[:-2] + (n * d, n * d))


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

    def plus_subblock(
        self, var: str, start: int, rotation: np.ndarray, coeff: float = 1.0
    ) -> "AffineExpr":
        self.terms.append(
            Term(var, "subblock_conj", coeff, left=np.asarray(rotation, dtype=complex), start=start)
        )
        return self

    def evaluate(self, assign: dict[str, np.ndarray]) -> np.ndarray:
        out = self.const.copy()
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
    objective: ScalarExpr | None = None  # what ``minimize`` minimizes

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


@dataclass
class SDPResult:
    status: str  # "optimal" | "maxIterations"
    assignment: dict[str, np.ndarray]
    residuals: dict[str, float]
    iterations: int
    # (z, y) of the solve: z over the problem's slack, so that
    # ``Program(prob).farkas(z)`` reads it as a witness
    dual: tuple[np.ndarray, np.ndarray]


_SQRT2 = math.sqrt(2.0)


class Program:
    """One problem compiled over the rvec coordinates of its variables.

    The problem reads s = G x + c in K, G_eq x + c_eq = 0: G is the linear
    map probed once per (constraint, variable), with the PSD blocks' rvec
    rows first and one row per inequality after them, G_eq has one row per
    equality, and K is the product of the PSD cones and the nonnegative
    orthant of the inequalities.  ``minimize`` starts from this compile
    step, and ``farkas`` tests a Farkas witness against it.
    """

    def __init__(self, prob: SDProblem):
        self.var_offsets: dict[str, tuple[int, int]] = {}
        off = 0
        for lab, d in prob.variables:
            self.var_offsets[lab] = (off, d)
            off += d * d
        self.n_vars = off
        if off > MAX_VAR_REALS:
            raise ValueError(f"problem too large for the dense engine ({off} var reals)")
        self.prob = prob
        self.block_dims = [e.dim for e in prob.psd_constraints]
        self.n_graph = sum(d * d for d in self.block_dims) + len(prob.inequalities)
        self._index_blocks()
        self.n_eq = len(prob.equalities)
        full = self._columns()
        self.g_graph = full[: self.n_graph]
        self.g_eq = full[self.n_graph :]
        # least-squares multiplier of the infeasibility witness: nu = nu_map @ w
        # minimizes |G^T w + G_eq^T nu| (G_eq has full row rank, as ``minimize`` needs)
        if self.n_eq:
            self.nu_map = -np.linalg.solve(self.g_eq @ self.g_eq.T, self.g_eq @ self.g_graph.T)
        else:
            self.nu_map = np.zeros((0, self.n_graph))
        rows = [herm_to_rvec(e.const) for e in prob.psd_constraints]
        rows.append(np.array([iq.const for iq in prob.inequalities]))
        self.c_graph = np.concatenate(rows) if self.n_graph else np.zeros(0)
        self.c_eq = np.array([eq.const for eq in prob.equalities])

    # -- structure ---------------------------------------------------------
    def _basis(self) -> dict[str, np.ndarray]:
        return {lab: rvec_to_herm(np.eye(d * d), d) for lab, (_, d) in self.var_offsets.items()}

    def functional(self, scalar: ScalarExpr, basis: dict | None = None) -> np.ndarray:
        """The linear part of ``scalar`` as a row over the rvec coordinates."""
        basis = self._basis() if basis is None else basis
        row = np.zeros(self.n_vars)
        for var, f in scalar.terms:
            o, d = self.var_offsets[var]
            row[o : o + d * d] += np.real(np.sum(f.conj() * basis[var], axis=(-2, -1)))
        return row

    def _columns(self) -> np.ndarray:
        """The linear map over the rvec coordinates of the variables.

        Each variable's d*d basis matrices are probed as one stack, once per
        constraint that holds the variable; a constraint's terms of one
        variable are summed, from zero and in order, before the conversion.
        """
        cols = np.zeros((self.n_graph + self.n_eq, self.n_vars))
        basis = self._basis()
        row = 0
        for expr in self.prob.psd_constraints:
            for lab in dict.fromkeys(t.var for t in expr.terms):
                o, d = self.var_offsets[lab]
                acc = np.zeros((d * d, expr.dim, expr.dim), dtype=complex)
                for t in expr.terms:
                    if t.var == lab:
                        acc = acc + t.apply(basis[lab])
                cols[row : row + expr.dim**2, o : o + d * d] = herm_to_rvec(acc).T
            row += expr.dim**2
        for scalar in self.prob.inequalities + self.prob.equalities:
            cols[row] = self.functional(scalar, basis)
            row += 1
        return cols

    def _index_blocks(self) -> None:
        """``block_slots[d]`` holds, per PSD block of dimension d, the
        positions of its rvec in the slack s (blocks in order of appearance);
        the inequality slots start at ``n_psd``."""
        offsets: dict[int, list[int]] = {}
        pos = 0
        for d in self.block_dims:
            offsets.setdefault(d, []).append(pos)
            pos += d * d
        self.block_slots = {
            d: np.array(offs)[:, None] + np.arange(d * d) for d, offs in offsets.items()
        }
        self.n_psd = pos

    def get_vars(self, x: np.ndarray) -> dict[str, np.ndarray]:
        return {lab: rvec_to_herm(x[o : o + d * d], d) for lab, (o, d) in self.var_offsets.items()}

    # -- infeasibility witness -----------------------------------------------
    def farkas(self, slack: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Farkas witness (w, nu, gap, |r|) from a slack-side vector.

        w is ``slack`` (one rvec per PSD block, then one weight per
        inequality) projected onto the cone and normalised: each block's
        negative eigenvalues are clipped (one stacked ``eigh`` per block
        dimension), and so are the weights.  nu is its least-squares
        multiplier; r = G^T w + G_eq^T nu and gap = -(<c, w> + <c_eq, nu>).
        For every feasible x, 0 <= <w, G x + c> = <r, x> - gap, so
        |x| >= gap / |r|; ``witness_fires`` reads that bound.
        """
        w = np.clip(slack, 0.0, None)
        for d, slots in self.block_slots.items():
            vals, vecs = np.linalg.eigh(rvec_to_herm(slack[slots], d))
            w[slots] = herm_to_rvec((vecs * np.clip(vals, 0.0, None)[:, None, :]) @ _ct(vecs))
        norm = float(np.linalg.norm(w))
        if norm > 0.0:
            w /= norm
        nu = self.nu_map @ w
        r = self.g_graph.T @ w + self.g_eq.T @ nu
        gap = -float(self.c_graph @ w + self.c_eq @ nu)
        return w, nu, gap, float(np.linalg.norm(r))


def witness_fires(gap: float, resid: float) -> bool:
    """The test an infeasibility verdict needs: gap > 0 and |r| <= WITNESS_RATIO * gap,
    which proves that no feasible point has norm below 1 / WITNESS_RATIO."""
    return gap > 0.0 and resid <= WITNESS_RATIO * gap


def recheck(prob: SDProblem, assign: dict[str, np.ndarray]) -> tuple[bool, dict[str, float]]:
    """Whether ``assign`` satisfies ``prob`` to ``10 * FEASIBLE_TOL``, by
    ``_recheck``'s independent evaluation, and its residuals."""
    res = _recheck(prob, assign)
    return res["primal"] <= 10 * FEASIBLE_TOL and res["gap"] <= 10 * FEASIBLE_TOL, res


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


def _ct(mats: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mats, -1, -2))


def _congruence(c: np.ndarray) -> np.ndarray:
    """The (n, d^2, d^2) matrices of X -> C X C^H on rvecs, for a stack C of (n, d, d).

    A column is the image of an rvec basis matrix, built from the outer
    products P = c_i c_j^H of C's columns: e_i e_i^T maps to c_i c_i^H, and
    the basis pair (e_i e_j^T + e_j e_i^T) / sqrt2, i (e_i e_j^T - e_j e_i^T) / sqrt2
    of an entry i < j to (P + P^H) / sqrt2 and i (P - P^H) / sqrt2.
    """
    iu, di = _herm_indices(c.shape[-1])
    outer = np.einsum("nai,nbj->nijab", c, c.conj())
    p = outer[:, iu[0], iu[1]]
    images = np.concatenate(
        [outer[:, di[0], di[1]], (p + _ct(p)) / _SQRT2, 1j * (p - _ct(p)) / _SQRT2], axis=1
    )
    return np.swapaxes(herm_to_rvec(images), -1, -2)


class _ScaledBlocks(NamedTuple):
    """The PSD blocks of one dimension under ``_ScaledCone``'s scaling."""

    d: int
    slots: np.ndarray  # (n, d*d) slack positions of each block's rvec
    scale: np.ndarray  # (n, d*d, d*d) T on the rvecs
    unscale: np.ndarray  # (n, d*d, d*d) T^-1 on the rvecs


class _ScaledCone:
    """The slack space of a ``Program`` under Nesterov-Todd scaling.

    Per PSD block dimension d, the pair (S, Z) of positive definite blocks
    gets R with R^H Z R = R^-1 S R^-H = diag(lam): with S = L_S L_S^H,
    Z = L_Z L_Z^H and L_Z^H L_S = U diag(lam) V^H, R = L_S V diag(lam)^-1/2
    and R^-1 = diag(lam)^-1/2 U^H L_Z^H.  The scaling map is
    T(X) = R^-1 X R^-H, one d^2 x d^2 matrix per block on the rvecs, with
    the inverse R X R^H; on the inequality slots it is sqrt(z / s), with
    lam = sqrt(s z).  The scaled point T s = T^-T z = lam is diagonal, so
    lam o lam and the inverse of lam o, with X o Y = (X Y + Y X) / 2, act
    slot by slot on the rvecs: an rvec slot of entry (i, j) is multiplied
    by lam_i lam_j or divided by (lam_i + lam_j) / 2.
    """

    def __init__(self, prog: Program, s: np.ndarray, z: np.ndarray):
        self.groups = []
        n_psd = prog.n_psd
        self.t_scalar = np.sqrt(z[n_psd:] / s[n_psd:])
        self.lam = np.zeros_like(s)
        self.lam[n_psd:] = np.sqrt(s[n_psd:] * z[n_psd:])
        self.mid = self.lam.copy()  # (lam_i + lam_j) / 2 per slot
        self.isq = np.zeros_like(s)  # 1 / sqrt(lam_i lam_j) per slot
        self.isq[n_psd:] = 1.0 / self.lam[n_psd:]
        for d, slots in prog.block_slots.items():
            ls = np.linalg.cholesky(rvec_to_herm(s[slots], d))
            lz = np.linalg.cholesky(rvec_to_herm(z[slots], d))
            u, lam, vh = np.linalg.svd(_ct(lz) @ ls)
            isq = 1.0 / np.sqrt(lam)
            r = (ls @ _ct(vh)) * isq[:, None, :]
            r_inv = isq[:, :, None] * (_ct(u) @ _ct(lz))
            self.groups.append(_ScaledBlocks(d, slots, _congruence(r_inv), _congruence(r)))
            self.lam[slots[:, :d]] = lam
            iu = np.triu_indices(d, 1)
            li, lj = lam[:, iu[0]], lam[:, iu[1]]
            mid, isq_pair = (li + lj) / 2, 1.0 / np.sqrt(li * lj)
            self.mid[slots] = np.concatenate([lam, mid, mid], axis=1)
            self.isq[slots] = np.concatenate([isq * isq, isq_pair, isq_pair], axis=1)
        self.n_psd = n_psd

    def _apply(self, vec: np.ndarray, mats: list, scalar: np.ndarray) -> np.ndarray:
        """vec (or each column of a matrix) with each block's rvec multiplied
        by its matrix in ``mats`` and the inequality slots by ``scalar``."""
        out = np.empty_like(vec)
        column = vec.ndim == 1
        for group, mat in zip(self.groups, mats):
            block = vec[group.slots]
            out[group.slots] = (mat @ block[..., None])[..., 0] if column else mat @ block
        out[self.n_psd :] = (scalar if column else scalar[:, None]) * vec[self.n_psd :]
        return out

    def scale(self, vec: np.ndarray) -> np.ndarray:
        """T vec, or T applied to each column of a matrix."""
        return self._apply(vec, [g.scale for g in self.groups], self.t_scalar)

    def scale_adjoint(self, vec: np.ndarray) -> np.ndarray:
        """T^T vec."""
        return self._apply(vec, [np.swapaxes(g.scale, -1, -2) for g in self.groups], self.t_scalar)

    def unscale(self, vec: np.ndarray) -> np.ndarray:
        """T^-1 vec."""
        return self._apply(vec, [g.unscale for g in self.groups], 1.0 / self.t_scalar)

    def jordan(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a o b."""
        out = a * b
        for g in self.groups:
            ma, mb = rvec_to_herm(a[g.slots], g.d), rvec_to_herm(b[g.slots], g.d)
            out[g.slots] = herm_to_rvec((ma @ mb + mb @ ma) / 2)
        return out

    def max_step(self, direction: np.ndarray) -> float:
        """The largest alpha with lam + alpha direction in the cone (inf if none)."""
        rel = direction * self.isq
        worst = -float(rel[self.n_psd :].min(initial=0.0))
        for g in self.groups:
            worst = max(worst, -float(np.linalg.eigvalsh(rvec_to_herm(rel[g.slots], g.d)).min()))
        return 1.0 / worst if worst > 0.0 else math.inf


def minimize(prob: SDProblem) -> SDPResult:
    """Primal-dual interior-point solve of min <q, x> s.t. G x + c in K,
    G_eq x + c_eq = 0, the ``Program`` of ``prob`` with q its objective.

    The equalities are removed once: x = x0 + N u with N a null-space
    basis of G_eq (full row rank) and x0 its least-norm solution, so the
    problem is min <N^T q, u> s.t. s = A u + h in K with A = G N.  From the
    infeasible start u = 0, s = z = e (identity blocks, unit inequality
    slots), each iteration takes a Mehrotra predictor-corrector step
    (SIAM J. Optim. 2, 1992) under Nesterov-Todd scaling (SIAM J. Optim. 8,
    1998; ``_ScaledCone``).  The predictor solves the Newton system with
    lam o (ds~ + dz~) = -lam o lam, the corrector with
    sigma mu e - lam o lam - ds~_a o dz~_a, where sigma is the cube of the
    gap ratio the predictor would reach; both share the Schur matrix
    (T A)^T (T A).  The step goes 0.99 of the way to the boundary, at most 1.

    Returns "optimal" once the primal point passes ``recheck`` and the
    dual residual |A^T z - N^T q| and the gap <s, z> are both at most
    ``GAP_TOL`` max(1, |<q, x>|), the scale of the objective: the dual z
    can grow large on a thin feasible set (|z| ~ 6e4 at eps 0.001), and
    there a dual residual at the rounding level of z still bounds the
    objective to that relative accuracy.  The dual (z, y) is in ``dual``:
    z the slack-side multiplier (one rvec per PSD block, then one weight
    per inequality), y the least-squares equality multiplier with
    G^T z + G_eq^T y = q.  Otherwise, after
    ``IPM_MAX_ITER`` iterations, once the gap <s, z> exceeds
    degree / ``GAP_TOL`` (the iterates diverge, as on an infeasible problem;
    the start has gap = degree), or when a step's linear algebra fails (a
    block no longer numerically positive definite), it returns
    "maxIterations" with the last point.
    """
    if prob.objective is None:
        raise ValueError("minimize needs an objective")
    prog = Program(prob)
    q = prog.functional(prob.objective)
    if prog.n_eq:
        left, sv, vh = np.linalg.svd(prog.g_eq)
        null = vh[prog.n_eq :].T
        x0 = -vh[: prog.n_eq].T @ ((left.T @ prog.c_eq) / sv)
    else:
        null, x0 = np.eye(prog.n_vars), np.zeros(prog.n_vars)
    a = prog.g_graph @ null
    h = prog.g_graph @ x0 + prog.c_graph
    q_red = null.T @ q
    e = np.zeros(prog.n_graph)
    for d, slots in prog.block_slots.items():
        e[slots[:, :d]] = 1.0
    e[prog.n_psd :] = 1.0
    degree = float(e.sum())
    u, s, z = np.zeros(null.shape[1]), e.copy(), e.copy()
    status, it = "maxIterations", 0
    while True:
        r_p = a @ u + h - s
        r_d = a.T @ z - q_red
        x = x0 + null @ u
        gap = float(s @ z)
        obj = float(q @ x) + prob.objective.const
        res = {"dual": float(np.linalg.norm(r_d)), "duality_gap": gap, "objective": obj}
        if max(res["dual"], gap) <= GAP_TOL * max(1.0, abs(obj)):
            ok, checked = recheck(prob, prog.get_vars(x))
            res.update(checked)
            if ok:
                status = "optimal"
                break
        if it == IPM_MAX_ITER or gap > degree / GAP_TOL:
            break
        try:
            cone = _ScaledCone(prog, s, z)
            lam = cone.lam
            m = cone.scale(a)
            schur = m.T @ m
            t_rp = cone.scale(r_p)

            def newton(rhs):
                v = rhs / cone.mid
                du = np.linalg.solve(schur, m.T @ (v - t_rp) + r_d)
                dz = v - t_rp - m @ du
                return du, v - dz, dz

            _, ds_a, dz_a = newton(-lam * lam)
            alpha = min(1.0, cone.max_step(ds_a), cone.max_step(dz_a))
            sigma = (float((lam + alpha * ds_a) @ (lam + alpha * dz_a)) / gap) ** 3
            du, ds, dz = newton(sigma * gap / degree * e - lam * lam - cone.jordan(ds_a, dz_a))
            alpha = min(1.0, STEP_TO_BOUNDARY * min(cone.max_step(ds), cone.max_step(dz)))
        except np.linalg.LinAlgError:
            break
        u = u + alpha * du
        s = s + alpha * cone.unscale(ds)
        z = z + alpha * cone.scale_adjoint(dz)
        it += 1
    y = np.zeros(0)
    if prog.n_eq:
        y = np.linalg.solve(prog.g_eq @ prog.g_eq.T, prog.g_eq @ (q - prog.g_graph.T @ z))
    assign = prog.get_vars(x)
    if "primal" not in res:
        res.update(_recheck(prob, assign))
    return SDPResult(status, assign, res, it, dual=(z, y))
