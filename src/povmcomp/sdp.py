"""Small dense semidefinite engine: one primal-dual interior-point method.

Problems are posed over named Hermitian variables with affine Hermitian
expressions required PSD plus scalar equalities/inequalities.  ``Program``
compiles a problem once into s = G x + c in K, G_eq x + c_eq = 0 over the
rvec coordinates of its variables (K the PSD cones and the orthant of the
inequalities; each block is stored by its isometric real vector,
``herm_to_rvec``/``rvec_to_herm``).  Both conversions are one matrix
product with the rvec basis of the block dimension and field, which
``_rvec_basis`` builds once and caches.  Set-up probes the linear map G
once per (PSD constraint, variable) and once per variable for all its
scalar rows, over the stacked basis matrices of that cache.  ``Program``
also fixes the cone layout the solver works in: one slab per block
dimension, its blocks side by side as one (n, k) view, then the inequality
slots, with slot maps that give each slot its eigenvalue pair (i, j).

The field is read from the data.  A problem is real when every
coefficient has a zero imaginary part: each PSD constant, each term's
coefficient and ``kron`` left matrix, and the F of each
scalar row and of the objective (``_is_real``).  A real problem is solved
over real symmetric matrices, k = d(d+1)/2 coordinates per d x d block
(the diagonal and sqrt2 times the upper triangle); any other over
Hermitian ones, k = d^2.  On real data this loses nothing.  Every map of
the problem then commutes with entrywise conjugation (E(conj X) =
conj E(X), Re Tr[F^H conj X] = Re Tr[F^H X] for real F), and conjugation
keeps a matrix PSD.  So with X feasible, conj X is feasible with the same
objective, and so is Re X = (X + conj X) / 2, by convexity: a real
symmetric optimum is a Hermitian optimum, and a point the real solve
returns is a Hermitian point.  A Farkas witness (w, nu) of the real
program proves the Hermitian program infeasible as well: w is real, and
along an imaginary direction i A (A real antisymmetric) every map gives a
purely imaginary image, whose pairing with real w and real F is 0.  So the
gradient r has no component outside the real coordinates, |r| and the gap
are the same over the Hermitian coordinates, and the bound
|x| >= gap / |r| holds for every Hermitian x.

``minimize_many`` is the one solver: a primal-dual interior-point method
with Nesterov-Todd scaling and Mehrotra's predictor-corrector for problems
with an objective, run on several programs at once: they step together,
and each slab kernel of the iteration (the cone's ``cholesky``, ``svd``
and ``_congruence``, the scalings of vectors, the step tests' ``eigvalsh``
and the Jordan product) runs once per block dimension and field over the
blocks of every program still stepping, while each program keeps its own
scalars and Schur solve.  Each program gets the result of its lone solve
(a batch of one), bit for bit.  The solver serves
``entropies.d_max_smooth`` and ``entropies.i_max_smooth``; the protocol
thresholds and the one-shot region reach it through
``entropies.i_max_cq_many``, which solves the min t programs of all its
cq states as one batch.  A classical value (every sub-block that
carries rho 1x1 with sigma_b > 0) builds no problem at all: it is a
water-filling over (lambda_b, sigma_b, s0), which
``entropies._water_fill`` solves in closed form; both certificates below
are evaluated on those vectors (``entropies._fill_residuals``) and judged
by ``within_tolerance`` and ``witness_fires``.  Every solved value
carries its compiled ``Program`` and two certificates, which the caller
checks on that program with a variable held fixed:

- A point is feasible when ``recheck`` accepts it: ``_recheck`` evaluates
  its constraints again from the problem's own expressions.  The solver
  returns "optimal" only for a primal point that passes it, and its
  residuals hold that last recheck of its point.
- A problem is infeasible when a Farkas witness passes ``witness_fires``:
  a cone element w with gap > 0 and |G^T w + G_eq^T nu| <= WITNESS_RATIO * gap
  (``Program.farkas``), which proves that no feasible point has norm below
  1 / WITNESS_RATIO.  ``d_max_smooth`` builds w from the dual z of its
  min t solve and tests it on the solve's own program with t held just
  below the optimum.

Each solve starts at s = eta e, z = xi e (e the identity blocks and unit
inequality slots), with eta and xi scaled from the problem's data as in
SDPT3's infeasible start (Toh, Todd and Tutuncu, Optim. Methods Softw. 11,
1999).  A solve that reaches no certified optimum within ``IPM_MAX_ITER``
steps, or whose duality gap grows past its start's gap / ``GAP_TOL``,
returns "maxIterations".

Fixed settings: a point counts as feasible when its constraints are met to
``10 * FEASIBLE_TOL``; the solver stops at a relative gap and dual
residual of ``GAP_TOL`` and steps ``STEP_TO_BOUNDARY`` of the way to the
cone's boundary; ``MAX_VAR_REALS`` caps the variables' real dimension n,
the reals of the field solved (sum of k over the variables), since
the solver takes the SVD of G_eq with its n x n right factor for the
null-space basis and solves a Schur matrix of up to that size; a larger
problem raises ``ProblemTooLarge``.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# an "infeasible" verdict needs |G^T w + G_eq^T nu| <= WITNESS_RATIO * gap
WITNESS_RATIO = 0.1
FEASIBLE_TOL = 1e-8
MAX_VAR_REALS = 6000
# interior-point solve: stop at this relative gap and dual residual, take
# this share of the step to the cone's boundary, give up after so many steps
GAP_TOL = 1e-6
STEP_TO_BOUNDARY = 0.99
IPM_MAX_ITER = 100


class ProblemTooLarge(ValueError):
    """A problem whose variables have more than ``MAX_VAR_REALS`` real
    coordinates over its field; ``Program`` raises it before it compiles
    anything."""


_SQRT2 = math.sqrt(2.0)
_INDEX_CACHE: dict[int, tuple] = {}
_BASIS_CACHE: dict[tuple[int, bool], tuple[np.ndarray, np.ndarray]] = {}


def _herm_indices(d: int):
    cached = _INDEX_CACHE.get(d)
    if cached is None:
        iu = np.triu_indices(d, k=1)
        cached = (iu, np.diag_indices(d))
        _INDEX_CACHE[d] = cached
    return cached


def rvec_size(d: int, real: bool = False) -> int:
    """The rvec coordinates of a d x d block: d(d+1)/2 over the real
    symmetric matrices, d^2 over the Hermitian ones."""
    return d * (d + 1) // 2 if real else d * d


def _rvec_basis(d: int, real: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The cached, read-only pair (B, reader) of dimension d and field.

    Hermitian: B is (d^2, d^2) complex: its row k is the k-th rvec basis
    matrix E_k, flattened.  The diagonal e_i e_i^T come first, then
    (e_i e_j^T + e_j e_i^T) / sqrt2 and then i (e_i e_j^T - e_j e_i^T) / sqrt2
    for the entries i < j; ``rvec_to_herm`` multiplies by B viewed as
    (d^2, 2 d^2) reals.  ``reader`` (2 d^2, d^2) takes a flattened matrix,
    viewed as interleaved real and imaginary parts, to its rvec.  It reads
    the diagonal's real parts and sqrt2 times the upper triangle's real and
    imaginary parts, so on a Hermitian M it is Re(M.flat @ B^H); a matrix
    that is Hermitian only up to rounding gets the same bits as from an
    entrywise read of its upper triangle.

    Real: the same basis without its imaginary rows, B (d(d+1)/2, d^2) and
    ``reader`` (d^2, d(d+1)/2), both real, over flattened real matrices:
    the diagonal and sqrt2 times the upper triangle.
    """
    cached = _BASIS_CACHE.get((d, real))
    if cached is None:
        if real:
            basis, reader = _rvec_basis(d)
            k = rvec_size(d, True)
            cached = (basis[:k].real.copy(), reader.reshape(d * d, 2, d * d)[:, 0, :k].copy())
        else:
            iu, di = _herm_indices(d)
            n_off = iu[0].size
            diag, upper, lower = di[0] * (d + 1), iu[0] * d + iu[1], iu[1] * d + iu[0]
            k_diag = np.arange(d)
            k_re = d + np.arange(n_off)
            k_im = k_re + n_off
            basis = np.zeros((d * d, d * d), dtype=complex)
            basis[k_diag, diag] = 1.0
            basis[k_re, upper] = basis[k_re, lower] = 1.0 / _SQRT2
            basis[k_im, upper] = 1j / _SQRT2
            basis[k_im, lower] = -1j / _SQRT2
            reader = np.zeros((d * d, 2, d * d))
            reader[diag, 0, k_diag] = 1.0
            reader[upper, 0, k_re] = _SQRT2
            reader[upper, 1, k_im] = _SQRT2
            cached = (basis, reader.reshape(2 * d * d, d * d))
        for arr in cached:
            arr.flags.writeable = False
        _BASIS_CACHE[d, real] = cached
    return cached


def herm_to_rvec(mat: np.ndarray, real: bool = False) -> np.ndarray:
    """Isometric real parametrization of Hermitian matrices: (..., d, d) ->
    (..., d^2), or of real symmetric ones (the real parts of ``mat``) ->
    (..., d(d+1)/2) with ``real``."""
    d = mat.shape[-1]
    if real:
        flat = np.real(mat)
    else:
        flat = np.ascontiguousarray(mat, dtype=complex).view(np.float64)
    return flat.reshape(mat.shape[:-2] + (-1,)) @ _rvec_basis(d, real)[1]


def rvec_to_herm(vec: np.ndarray, d: int, real: bool = False) -> np.ndarray:
    """Inverse of ``herm_to_rvec``: (..., d^2) -> (..., d, d) complex, or
    (..., d(d+1)/2) -> (..., d, d) real with ``real``."""
    basis = _rvec_basis(d, real)[0]
    if real:
        flat = np.asarray(vec, dtype=np.float64) @ basis
        return flat.reshape(flat.shape[:-1] + (d, d))
    flat = np.asarray(vec, dtype=np.float64) @ basis.view(np.float64)
    return flat.view(complex).reshape(flat.shape[:-1] + (d, d))


@dataclass(frozen=True)
class Term:
    """One affine contribution coeff * map(X_var)."""

    var: str
    kind: str  # "id" | "kron" | "subblock"
    coeff: float = 1.0
    left: np.ndarray | None = None  # the kron term's left factor
    start: int = 0  # first row and column of the subblock

    def apply(self, x: np.ndarray) -> np.ndarray:
        """coeff * map(x) for x of shape (..., d, d), broadcast over leading axes."""
        if self.kind == "id":
            return self.coeff * x
        if self.kind == "kron":
            return self.coeff * _kron(self.left, x)
        if self.kind == "subblock":
            # the trailing principal subblock from row and column ``start``
            return self.coeff * x[..., self.start :, self.start :]
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
    def zero(dim: int) -> "AffineExpr":
        return AffineExpr(dim, np.zeros((dim, dim), dtype=complex), [])

    def plus_var(self, var: str, coeff: float = 1.0) -> "AffineExpr":
        self.terms.append(Term(var, "id", coeff))
        return self

    def plus_kron(self, left: np.ndarray, var: str) -> "AffineExpr":
        self.terms.append(Term(var, "kron", 1.0, left=np.asarray(left, dtype=complex)))
        return self

    def plus_subblock(self, var: str, start: int, coeff: float = 1.0) -> "AffineExpr":
        self.terms.append(Term(var, "subblock", coeff, start=start))
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
    variables: dict[str, int] = field(default_factory=dict)  # label -> dim, in add order
    psd_constraints: list[AffineExpr] = field(default_factory=list)
    equalities: list[ScalarExpr] = field(default_factory=list)
    inequalities: list[ScalarExpr] = field(default_factory=list)  # each >= 0
    objective: ScalarExpr | None = None  # what ``minimize_many`` minimizes

    def add_var(self, label: str, dim: int) -> str:
        if label in self.variables:
            raise ValueError(f"duplicate variable {label!r}")
        self.variables[label] = dim
        return label

    def require_psd(self, expr: AffineExpr) -> None:
        self.psd_constraints.append(expr)

    def require_eq(self, expr: ScalarExpr) -> None:
        self.equalities.append(expr)

    def require_geq(self, expr: ScalarExpr) -> None:
        self.inequalities.append(expr)


def _is_real(prob: SDProblem) -> bool:
    """Whether every coefficient of ``prob`` has a zero imaginary part: each
    PSD constant, each term's coefficient and left matrix, and the F of each
    scalar row and of the objective."""
    rows = prob.equalities + prob.inequalities + [prob.objective] * (prob.objective is not None)
    arrays = [np.zeros(0)] + [expr.const.ravel() for expr in prob.psd_constraints]
    arrays += [t.left.ravel() for e in prob.psd_constraints for t in e.terms if t.left is not None]
    arrays += [f.ravel() for row in rows for _, f in row.terms]
    coeffs = [t.coeff for expr in prob.psd_constraints for t in expr.terms]
    # one test over all the arrays: a test per array costs more than a small compile's probes
    return not (any(complex(c).imag for c in coeffs) or np.concatenate(arrays).imag.any())


@dataclass
class SDPResult:
    status: str  # "optimal" | "maxIterations"
    assignment: dict[str, np.ndarray]
    residuals: dict[str, float]
    iterations: int
    # the dual z of the solve, over the problem's slack in its own order, so
    # that ``program.farkas(z)`` reads it as a witness
    dual: np.ndarray
    program: Program  # the compiled problem the solve ran on


class Program:
    """One problem compiled over the rvec coordinates of its variables.

    ``real`` is the field, read from the data (``_is_real``): a real
    problem is compiled over the d(d+1)/2 real symmetric coordinates of each
    d x d block, any other over its d^2 Hermitian ones; every size, offset
    and slot map below counts ``rvec_size(d, real)`` coordinates per block.
    The problem reads s = G x + c in K, G_eq x + c_eq = 0: G is the linear
    map with the PSD blocks' rvec rows first, in problem order, and one row
    per inequality after them, G_eq has one row per equality, and K is the
    product of the PSD cones and the nonnegative orthant of the
    inequalities.  ``minimize_many`` starts from this compile step, and
    ``farkas`` tests a Farkas witness against it.

    The slab layout: ``order`` lists the slack positions slab by slab
    (dimensions in order of first appearance, then the inequalities), the
    slab of (d, lo, n) in ``slabs`` holds n blocks at positions lo ..
    lo + n k of that order, and ``pair`` gives each slot its eigenvalue
    pair (i, j), i = j on a diagonal or inequality slot, as positions in
    the block-eigenvalue vector (the slabs' eigenvalues, then the inequalities').
    """

    def __init__(self, prob: SDProblem):
        self.real = _is_real(prob)
        self.var_offsets: dict[str, tuple[int, int]] = {}
        off = 0
        for lab, d in prob.variables.items():
            self.var_offsets[lab] = (off, d)
            off += rvec_size(d, self.real)
        self.n_vars = off
        if off > MAX_VAR_REALS:
            raise ProblemTooLarge(
                f"problem too large for the dense engine: {off} var reals"
                f" > MAX_VAR_REALS = {MAX_VAR_REALS}"
            )
        self.prob = prob
        # the _Union of the last batch this program came first in (``_union_of``)
        self.last_union = None
        self.block_dims = [e.dim for e in prob.psd_constraints]
        self.n_graph = sum(rvec_size(d, self.real) for d in self.block_dims)
        self.n_graph += len(prob.inequalities)
        self._index_blocks()
        self.n_eq = len(prob.equalities)
        full = self._columns()
        self.g_graph = full[: self.n_graph]
        self.g_eq = full[self.n_graph :]
        rows = [herm_to_rvec(e.const, self.real) for e in prob.psd_constraints]
        rows.append(np.array([iq.const for iq in prob.inequalities]))
        self.c_graph = np.concatenate(rows) if self.n_graph else np.zeros(0)
        self.c_eq = np.array([eq.const for eq in prob.equalities])

    @cached_property
    def nu_map(self) -> np.ndarray:
        """The least-squares multiplier of the infeasibility witness:
        nu = nu_map @ w minimizes |G^T w + G_eq^T nu| (G_eq has full row
        rank, as ``minimize_many`` needs).  Only ``farkas`` reads it."""
        if not self.n_eq:
            return np.zeros((0, self.n_graph))
        return -np.linalg.solve(self.g_eq @ self.g_eq.T, self.g_eq @ self.g_graph.T)

    # -- structure ---------------------------------------------------------
    def _basis(self) -> dict[str, np.ndarray]:
        """Per variable, its k rvec basis matrices as one (k, d, d) stack."""
        return {
            lab: _rvec_basis(d, self.real)[0].reshape(-1, d, d)
            for lab, (_, d) in self.var_offsets.items()
        }

    def functional(self, scalar: ScalarExpr) -> np.ndarray:
        """The linear part of ``scalar`` (the objective) as a row over the rvec coordinates."""
        basis = self._basis()
        row = np.zeros(self.n_vars)
        for var, f in scalar.terms:
            o, d = self.var_offsets[var]
            row[o : o + len(basis[var])] += np.real(np.sum(f.conj() * basis[var], axis=(-2, -1)))
        return row

    def _columns(self) -> np.ndarray:
        """The linear map over the rvec coordinates of the variables.

        Each variable's k basis matrices are probed as one stack, once per
        PSD constraint that holds the variable; a constraint's terms of one
        variable are summed, from zero and in order, before the conversion.
        The inequality and equality rows that hold a variable are probed in
        one stacked product per variable, each term's row added in order.
        """
        cols = np.zeros((self.n_graph + self.n_eq, self.n_vars))
        basis = self._basis()
        row = 0
        for expr in self.prob.psd_constraints:
            width = rvec_size(expr.dim, self.real)
            for lab in dict.fromkeys(t.var for t in expr.terms):
                o, k = self.var_offsets[lab][0], len(basis[lab])
                acc = np.zeros((k, expr.dim, expr.dim), dtype=complex)
                for t in expr.terms:
                    if t.var == lab:
                        acc = acc + t.apply(basis[lab])
                cols[row : row + width, o : o + k] = herm_to_rvec(acc, self.real).T
            row += width
        scalars = self.prob.inequalities + self.prob.equalities
        for var, (rows, fs) in _terms_by_var(scalars).items():
            o, k = self.var_offsets[var][0], len(basis[var])
            # a product holds one row or at most 2^16 entries
            step = max(1, 2**16 // basis[var].size)
            for lo in range(0, len(rows), step):
                probe = fs[lo : lo + step].conj()[:, None] * basis[var]
                vals = np.real(np.sum(probe, axis=(-2, -1)))
                np.add.at(cols, (row + rows[lo : lo + step], slice(o, o + k)), vals)
        return cols

    def _index_blocks(self) -> None:
        """``block_slots[d]`` holds, per PSD block of dimension d, the
        positions of its rvec in the slack s (blocks in order of appearance);
        the inequality slots start at ``n_psd``; the slab layout follows."""
        offsets: dict[int, list[int]] = {}
        pos = 0
        for d in self.block_dims:
            offsets.setdefault(d, []).append(pos)
            pos += rvec_size(d, self.real)
        self.block_slots = {
            d: np.array(offs)[:, None] + np.arange(rvec_size(d, self.real))
            for d, offs in offsets.items()
        }
        self.n_psd = pos
        ineq = np.arange(pos, self.n_graph)
        self.order = np.concatenate([sl.ravel() for sl in self.block_slots.values()] + [ineq])
        self.slabs, pairs, lo, first = [], [], 0, 0
        for d, slots in self.block_slots.items():
            self.slabs.append((d, lo, len(slots)))
            base = first + d * np.arange(len(slots))[:, None, None]
            # the upper entries' slots come once per part: real, then imaginary
            parts = 1 if self.real else 2
            iu = _herm_indices(d)[0]
            ends = [np.concatenate([np.arange(d)] + [side] * parts) for side in iu]
            pairs.append(np.swapaxes(base + ends, 0, 1).reshape(2, -1))
            lo, first = lo + slots.size, first + d * len(slots)
        pairs.append(np.stack([ineq, ineq]) - pos + first)
        self.pair = np.concatenate(pairs, axis=1)

    def get_vars(self, x: np.ndarray) -> dict[str, np.ndarray]:
        return {
            lab: rvec_to_herm(x[o : o + rvec_size(d, self.real)], d, self.real)
            for lab, (o, d) in self.var_offsets.items()
        }

    # -- infeasibility witness -----------------------------------------------
    def farkas(
        self, slack: np.ndarray, held: dict[str, float] | None = None
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Farkas witness (w, nu, gap, |r|) from a slack-side vector.

        w is ``slack`` (one rvec per PSD block, then one weight per
        inequality) projected onto the cone and normalised: each block's
        negative eigenvalues are clipped (one stacked ``eigh`` per block
        dimension), and so are the weights.  nu is its least-squares
        multiplier; r = G^T w + G_eq^T nu and gap = -(<c, w> + <c_eq, nu>).
        For every feasible x, 0 <= <w, G x + c> = <r, x> - gap, so
        |x| >= gap / |r|; ``witness_fires`` reads that bound.

        ``held`` holds 1x1 variables at fixed values: each one's coordinate
        moves to the constant side, gap -= value * r_var and r_var := 0,
        which is the witness of the program with that variable fixed.  It
        is exact when no equality row holds the variable, so that G_eq,
        ``nu_map`` and the slack layout stay; a held variable with a
        nonzero G_eq column raises ValueError.
        """
        w = np.clip(slack, 0.0, None)
        for d, slots in self.block_slots.items():
            vals, vecs = np.linalg.eigh(rvec_to_herm(slack[slots], d, self.real))
            clipped = (vecs * np.clip(vals, 0.0, None)[:, None, :]) @ _ct(vecs)
            w[slots] = herm_to_rvec(clipped, self.real)
        norm = float(np.linalg.norm(w))
        if norm > 0.0:
            w /= norm
        nu = self.nu_map @ w
        r = self.g_graph.T @ w + self.g_eq.T @ nu
        gap = -float(self.c_graph @ w + self.c_eq @ nu)
        for var, value in (held or {}).items():
            o, d = self.var_offsets[var]
            if d != 1 or self.g_eq[:, o].any():
                raise ValueError(f"{var!r} is not a 1x1 variable outside every equality row")
            gap -= value * float(r[o])
            r[o] = 0.0
        return w, nu, gap, float(np.linalg.norm(r))


def witness_fires(gap: float, resid: float) -> bool:
    """The test an infeasibility verdict needs: gap > 0 and |r| <= WITNESS_RATIO * gap,
    which proves that no feasible point has norm below 1 / WITNESS_RATIO."""
    return gap > 0.0 and resid <= WITNESS_RATIO * gap


def recheck(prob: SDProblem, assign: dict[str, np.ndarray]) -> tuple[bool, dict[str, float]]:
    """Whether ``assign`` satisfies ``prob`` to ``10 * FEASIBLE_TOL``, by
    ``_recheck``'s independent evaluation, and its residuals."""
    res = _recheck(prob, assign)
    return within_tolerance(res), res


def within_tolerance(residuals: dict[str, float]) -> bool:
    """Whether the "primal" and "gap" residuals of ``_recheck`` are both at
    most ``10 * FEASIBLE_TOL``: the verdict of ``recheck``."""
    return residuals["primal"] <= 10 * FEASIBLE_TOL and residuals["gap"] <= 10 * FEASIBLE_TOL


def _recheck(prob: SDProblem, assign: dict[str, np.ndarray]) -> dict[str, float]:
    """Independent constraint evaluation of a candidate assignment from the
    problem's expressions, with one ``eigvalsh`` per block dimension."""
    vals = [expr.evaluate(assign) for expr in prob.psd_constraints]
    min_eig = 0.0
    for d in dict.fromkeys(v.shape[0] for v in vals):
        stack = np.stack([v for v in vals if v.shape[0] == d])
        min_eig = min(min_eig, float(np.linalg.eigvalsh((stack + _ct(stack)) / 2)[:, 0].min()))
    min_eig = min(min_eig, float(_scalar_values(prob.inequalities, assign).min(initial=0.0)))
    eq_resid = float(np.abs(_scalar_values(prob.equalities, assign)).max(initial=0.0))
    return {"primal": max(-min_eig, 0.0), "gap": eq_resid}


def _terms_by_var(scalars: list[ScalarExpr]) -> dict[str, list[np.ndarray]]:
    """Per variable, the rows and the stacked F of the scalar terms that
    hold it, in row and term order."""
    groups: dict[str, list] = {}
    for i, scalar in enumerate(scalars):
        for var, f in scalar.terms:
            groups.setdefault(var, []).append((i, f))
    return {var: [np.array(part) for part in zip(*grp)] for var, grp in groups.items()}


def _scalar_values(scalars: list[ScalarExpr], assign: dict[str, np.ndarray]) -> np.ndarray:
    """``ScalarExpr.evaluate`` of every row: the terms' Re Tr[F^H X] from
    one stacked product per shape of F, added to the constant in term order."""
    groups: dict[tuple, list] = {}
    for i, scalar in enumerate(scalars):
        for j, (var, f) in enumerate(scalar.terms):
            groups.setdefault(f.shape, []).append((i, j, f, assign[var]))
    table = np.zeros((len(scalars), max((len(sc.terms) for sc in scalars), default=0)))
    for group in groups.values():
        rows, pos, fs, xs = zip(*group)
        table[rows, pos] = np.real(np.sum(np.conj(fs) * np.array(xs), axis=(-2, -1)))
    vals = np.array([sc.const for sc in scalars], dtype=float)
    for col in table.T:
        vals = vals + col
    return vals


def _ct(mats: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mats, -1, -2))


def _congruence(c: np.ndarray, real: bool = False) -> np.ndarray:
    """The (n, k, k) matrices of X -> C X C^H on rvecs, for a stack C of
    (n, d, d), k = ``rvec_size(d, real)``; with ``real`` C is real.

    On flattened matrices the map is C (x) conj(C), so on rvecs it is
    Re(conj(B) (C (x) conj(C)) B^T) with ``_rvec_basis``'s B.  All basis
    matrices E_k go through it in one matrix product, and ``reader`` takes
    each image C E_k C^H to its rvec, the column k.  Per block this costs
    k d^4 products for the images and k^2 d^2 for the reads (twice that
    over the Hermitian field, whose images have imaginary parts): about
    3 d^6 with k = d^2, and d^6 / 2 + d^6 / 4 over the real field with
    k = d(d+1)/2, against d^4 for an entrywise build, in a few numpy calls per
    stack.  With one BLAS thread it is the faster build up to d = 8 and the
    slower one from d = 12; the bundled instances' blocks have d <= 4.
    """
    n, d = c.shape[0], c.shape[-1]
    basis, reader = _rvec_basis(d, real)
    ct = np.swapaxes(c, -1, -2)
    # kron[(i, j), (a, b)] = C[a, i] conj(C[b, j])
    kron = (ct[:, :, None, :, None] * ct.conj()[:, None, :, None, :]).reshape(n, d * d, d * d)
    images = basis @ kron  # row k: C E_k C^H, flattened
    return np.swapaxes((images if real else images.view(np.float64)) @ reader, -1, -2)


class _ScaledCone:
    """The slack space of a ``Program``, in its slab layout, under
    Nesterov-Todd scaling.  Per PSD block, the pair (S, Z) of positive definite blocks gets R with
    R^H Z R = R^-1 S R^-H = diag(lam): with S = L_S L_S^H, Z = L_Z L_Z^H and
    L_Z^H L_S = U diag(lam) V^H, R = L_S V diag(lam)^-1/2 and
    R^-1 = diag(lam)^-1/2 U^H L_Z^H, all real on a real ``Program``.  The
    scaling map is T(X) = R^-1 X R^-H, one k x k matrix per block on the
    rvecs (one ``_congruence`` per slab, from the cached rvec basis, in
    ``scales``); on the inequality
    slots it is sqrt(z / s), with lam = sqrt(s z).  The solver needs T and
    T^T only: it takes the unscaled primal step T^-1 ds~ from its residual,
    as r_p + A du.  The scaled point T s = T^-T z = lam is diagonal, so
    lam o lam and the inverse of lam o, with X o Y = (X Y + Y X) / 2, act
    slot by slot on the rvecs: a slot of entry (i, j) is multiplied by
    lam_i lam_j or divided by (lam_i + lam_j) / 2.  ``lam``, ``mid`` and
    ``isq`` = 1 / sqrt(lam_i lam_j) ((1 / sqrt lam_i)^2 on a block's
    diagonal) are gathered from the eigenvalues through ``Program.pair``,
    and every kernel works on the (n, k) views of the slabs.

    ``_scaled_cones`` builds the cones of several programs at once, and
    the other kernels (T vec in ``_scale_many``, T^T vec in
    ``_scale_adjoint_many``, a o b in ``_jordans``, the step test in
    ``_max_steps``) take several cones at once.  ``scale`` of a matrix,
    T A in the solver, stays per cone: each program's A has its own
    number of columns.
    """

    def __init__(self, prog: Program, scales: list, vectors: tuple):
        self.prog, self.scales = prog, scales
        self.slabs, self.n_psd, self.real = prog.slabs, prog.n_psd, prog.real
        self.lam, self.mid, self.isq, self.t_scalar = vectors

    def scale(self, mat: np.ndarray) -> np.ndarray:
        """T applied to each column of a matrix: each block's rows multiplied
        by its scaling matrix, the inequality rows by ``t_scalar``."""
        out = np.empty_like(mat)
        for (d, lo, n), scale in zip(self.slabs, self.scales):
            k = scale.shape[-1]
            rows = slice(lo, lo + n * k)
            out[rows] = (scale @ mat[rows].reshape(n, k, -1)).reshape(n * k, -1)
        out[self.n_psd :] = self.t_scalar[:, None] * mat[self.n_psd :]
        return out


# -- slab kernels over several programs ----------------------------------------
#
# Each kernel takes a list of items, one per program, lays their vectors
# end to end and runs each numpy call once per union slab: the blocks of
# one dimension and field of every program, side by side in program order
# (``_Union``).  A stacked LAPACK or matmul call gives each slice the bits it
# gives that slice alone, and the elementwise work is exact per slot, so a
# program's result does not depend on the other programs.


class _Union:
    """Where the slots of several programs sit when their vectors are laid
    end to end in program order: program i's slack slots at ``spans[i]``,
    its inequality slots at ``ineq_spans[i]`` of the joined inequality
    slots ``ineq``.

    ``slabs`` holds one (d, real, take, parts) per union slab: ``take``
    lists the slots of its blocks in the joined vector, block by block,
    and ``parts`` each program's share as (program, slab index, first row,
    n), the rows counting the union slab's blocks.  ``pair``, ``diag`` and
    ``psd_diag`` are ``Program.pair`` and its diagonal slots (those of the
    PSD blocks alone) over the joined eigenvalue vectors: per program, its
    slabs' eigenvalues, then its inequalities'.  For the step test,
    ``low_take`` reads each program's 0 and its inequality slots from the
    joined vector with a 0 in front, one run per program from
    ``low_starts``.
    """

    def __init__(self, progs: list[Program]):
        # weak, so that a program's memo of its union makes no cycle
        self.progs = [weakref.ref(prog) for prog in progs]
        self.spans, self.ineq_spans, self.low_starts = [], [], []
        union: dict[tuple[int, bool], list] = {}
        pairs, psd, ineq, low_take = [], [], [], []
        lo = lo_ineq = first = 0
        for i, prog in enumerate(progs):
            for j, (d, at, n) in enumerate(prog.slabs):
                union.setdefault((d, prog.real), []).append((i, j, lo + at, n))
            slots = np.arange(lo + prog.n_psd, lo + prog.n_graph)
            pairs.append(prog.pair + first)
            psd.append(np.arange(prog.n_graph) < prog.n_psd)
            ineq.append(slots)
            low_take += [np.zeros(1, dtype=int), slots + 1]
            self.low_starts.append(lo_ineq + i)
            self.spans.append((lo, lo + prog.n_graph))
            self.ineq_spans.append((lo_ineq, lo_ineq + slots.size))
            lo, lo_ineq = lo + prog.n_graph, lo_ineq + slots.size
            first += sum(d * n for d, _, n in prog.slabs) + slots.size
        self.slabs = []
        for (d, real), parts in union.items():
            k = rvec_size(d, real)
            take = np.concatenate([np.arange(at, at + n * k) for _, _, at, n in parts])
            rows = np.cumsum([0] + [n for *_, n in parts]).tolist()
            parts = [(i, j, row, n) for (i, j, _, n), row in zip(parts, rows)]
            self.slabs.append((d, real, take, parts))
        self.ineq = np.concatenate(ineq)
        self.pair = np.concatenate(pairs, axis=1)
        self.diag = self.pair[0] == self.pair[1]
        self.psd_diag = self.diag & np.concatenate(psd)
        self.low_take = np.concatenate(low_take)

    def split(self, joined: np.ndarray) -> list[np.ndarray]:
        """A joined vector as each program's own (views)."""
        return [joined[lo:hi] for lo, hi in self.spans]


def _union_of(progs: list[Program]) -> _Union:
    """The ``_Union`` of ``progs``: the last one built for the first of
    them when it has exactly these programs, else a new one.  A batch keeps
    its programs from round to round until one of them stops."""
    last = progs[0].last_union
    if last is None or len(last.progs) != len(progs) or any(
        ref() is not prog for ref, prog in zip(last.progs, progs)
    ):
        last = progs[0].last_union = _Union(progs)
    return last


def _scaled_cones(items: list[tuple[Program, np.ndarray, np.ndarray]]) -> list[_ScaledCone]:
    """The ``_ScaledCone`` of each (prog, s, z): one ``cholesky``, one
    ``svd`` and one ``_congruence`` per union slab."""
    progs = [prog for prog, _, _ in items]
    union = _union_of(progs)
    both = np.stack([np.concatenate([item[side] for item in items]) for side in (1, 2)])
    scales = [[None] * len(prog.slabs) for prog in progs]
    eigs = [[None] * len(prog.slabs) for prog in progs]
    for d, real, take, parts in union.slabs:
        pair = rvec_to_herm(both[:, take].reshape(2, -1, rvec_size(d, real)), d, real)
        ls, lz = np.linalg.cholesky(pair)
        u, lam, vh = np.linalg.svd(_ct(lz) @ ls)
        r_inv = (1.0 / np.sqrt(lam))[:, :, None] * (_ct(u) @ _ct(lz))
        mats = _congruence(r_inv, real)
        for i, j, row, n in parts:
            scales[i][j], eigs[i][j] = mats[row : row + n], lam[row : row + n].ravel()
    s, z = both[:, union.ineq]
    tails = np.sqrt(s * z)
    eig = np.concatenate(
        [e for own, (lo, hi) in zip(eigs, union.ineq_spans) for e in own + [tails[lo:hi]]]
    )
    li, lj = eig[union.pair]
    lam = np.where(union.diag, li, 0.0)
    mid = (li + lj) / 2
    isq = np.where(union.psd_diag, (1.0 / np.sqrt(li)) ** 2, 1.0 / np.sqrt(li * lj))
    t_scalar = np.sqrt(z / s)
    return [
        _ScaledCone(prog, own, (lam[lo:hi], mid[lo:hi], isq[lo:hi], t_scalar[a:b]))
        for prog, own, (lo, hi), (a, b) in zip(progs, scales, union.spans, union.ineq_spans)
    ]


def _scalings(items: list[tuple[_ScaledCone, np.ndarray]], adjoint: bool) -> list[np.ndarray]:
    """T vec of each (cone, vec), or T^T vec with ``adjoint``: one stacked
    product per union slab.  A cone's matrices are the transposed view of
    the C-contiguous product ``_congruence`` makes; the union stacks those
    products and transposes them back, so that each product sees the
    strides of the cone's own matrices, which choose the BLAS kernel and so
    the bits."""
    cones = [cone for cone, _ in items]
    union = _union_of([cone.prog for cone in cones])
    vec = np.concatenate([v for _, v in items])
    out = np.empty_like(vec)
    for d, real, take, parts in union.slabs:
        stacked = np.concatenate([np.swapaxes(cones[i].scales[j], -1, -2) for i, j, _, _ in parts])
        mats = stacked if adjoint else np.swapaxes(stacked, -1, -2)
        out[take] = (mats @ vec[take].reshape(-1, rvec_size(d, real), 1)).ravel()
    out[union.ineq] = np.concatenate([cone.t_scalar for cone in cones]) * vec[union.ineq]
    return union.split(out)


def _scale_many(items: list[tuple[_ScaledCone, np.ndarray]]) -> list[np.ndarray]:
    """T vec of each (cone, vec)."""
    return _scalings(items, False)


def _scale_adjoint_many(items: list[tuple[_ScaledCone, np.ndarray]]) -> list[np.ndarray]:
    """T^T vec of each (cone, vec)."""
    return _scalings(items, True)


def _jordans(items: list[tuple[_ScaledCone, np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """a o b of each (cone, a, b)."""
    union = _union_of([cone.prog for cone, _, _ in items])
    both = np.stack([np.concatenate([item[side] for item in items]) for side in (1, 2)])
    out = both[0] * both[1]
    for d, real, take, _ in union.slabs:
        ma, mb = rvec_to_herm(both[:, take].reshape(2, -1, rvec_size(d, real)), d, real)
        out[take] = herm_to_rvec((ma @ mb + mb @ ma) / 2, real).ravel()
    return union.split(out)


def _max_steps(items: list[tuple[_ScaledCone, tuple[np.ndarray, ...]]]) -> list[float]:
    """For each (cone, directions): the largest alpha with lam + alpha d in
    the cone for each direction d (inf if none limits it), from one stacked
    ``eigvalsh`` per union slab.  Every item gives the same number of
    directions."""
    union = _union_of([cone.prog for cone, _ in items])
    isq = np.concatenate([cone.isq for cone, _ in items])
    sides = range(len(items[0][1]))
    rel = np.stack([np.concatenate([dirs[j] for _, dirs in items]) for j in sides]) * isq
    # per program, the least of 0, of its inequality slots over the
    # directions and of its blocks' eigenvalues (eigvalsh sorts them up)
    ext = np.concatenate(([0.0], rel.min(axis=0)))
    low = np.minimum.reduceat(ext[union.low_take], union.low_starts).tolist()
    for d, real, take, parts in union.slabs:
        blocks = rvec_to_herm(rel[:, take].reshape(len(rel), -1, rvec_size(d, real)), d, real)
        least = np.linalg.eigvalsh(blocks)[..., 0].min(axis=0)
        rows = [row for _, _, row, _ in parts]
        for (i, *_), value in zip(parts, np.minimum.reduceat(least, rows).tolist()):
            low[i] = min(low[i], value)
    return [1.0 / -v if v < 0.0 else math.inf for v in low]


def _run_kernel(kernel, items: list) -> list:
    """``kernel(items)``, the results in item order.  A ``LinAlgError`` of
    the stacked call is traced to the items that cause it: each item is run
    alone, and one whose own call raises gets its error as its result."""
    try:
        return kernel(items)
    except np.linalg.LinAlgError as err:
        if len(items) == 1:
            return [err]
    return [_run_kernel(kernel, [item])[0] for item in items]


def minimize_many(probs: list[SDProblem]) -> list[SDPResult]:
    """Primal-dual interior-point solve of each program, min <q, x> s.t.
    G x + c in K, G_eq x + c_eq = 0 (the ``Program`` of the problem, with q
    its objective), its results in order, with the programs stepped together.

    The equalities are removed once: x = x0 + N u with N a null-space
    basis of G_eq (full row rank) and x0 its least-norm solution, so the
    problem is min <N^T q, u> s.t. s = A u + h in K with A = G N.

    The infeasible start is u = 0, s = eta e, z = xi e, with e the identity
    blocks and unit inequality slots, n = degree = <e, e>, a_k the columns
    of A and q~ = N^T q:

        xi  = max(10, sqrt n, n max_k (1 + |q~_k|) / (1 + |a_k|)),
        eta = max(10, sqrt n, |h|, max_k |a_k|).

    This is SDPT3's rule (Toh, Todd and Tutuncu, Optim. Methods Softw. 11,
    1999) with its X our z, its Z our s, b = q~, C = h and A_k = a_k, so
    the start follows the scale of the data.  Each iteration takes a
    Mehrotra predictor-corrector step (SIAM J. Optim. 2, 1992) under
    Nesterov-Todd scaling (SIAM J. Optim. 8, 1998; ``_ScaledCone``).  The
    predictor solves the Newton system with
    lam o (ds~ + dz~) = -lam o lam, the corrector with
    sigma mu e - lam o lam - ds~_a o dz~_a, where sigma is the cube of the
    gap ratio the predictor would reach; both share the Schur matrix
    (T A)^T (T A).  The step goes 0.99 of the way to the boundary, at most 1,
    with one paired ``max_step`` test of (ds~, dz~).  The primal step is
    T^-1 ds~ = r_p + A du, read from the residual r_p = A u + h - s; the
    dual step is T^T dz~.

    The iteration works in the slab layout: A, h and e are permuted once by
    ``Program.order``.
    Returns "optimal" once the primal point passes ``recheck`` and the
    dual residual |A^T z - N^T q| and the gap <s, z> are both at most
    ``GAP_TOL`` max(1, |<q, x>|), the scale of the objective: the dual z
    can grow large on a thin feasible set (|z| ~ 6e4 at eps 0.001), and
    there a dual residual at the rounding level of z still bounds the
    objective to that relative accuracy.  ``dual`` is z alone, the
    slack-side multiplier back in the problem's own order (one rvec per
    PSD block, then one weight per inequality).  Otherwise, after
    ``IPM_MAX_ITER`` iterations, once the gap <s, z> exceeds the start's
    gap eta xi degree / ``GAP_TOL`` (the iterates diverge, as on an
    infeasible problem), or when a step's linear algebra fails (a
    block no longer numerically positive definite), it returns
    "maxIterations" with the last point.

    Each program runs its own iteration (``_solve``) up to each slab
    kernel: the cone's ``cholesky``, ``svd`` and ``_congruence``
    (``_scaled_cones``), the scalings T r_p and T^T dz (``_scale_many``,
    ``_scale_adjoint_many``), the step tests' ``eigvalsh``
    (``_max_steps``) and the Jordan product (``_jordans``).  There it
    waits, and the kernel runs
    once over the blocks of every program that waits for it
    (``_run_kernel``), one numpy call per block dimension and field.  A
    round of the loop then makes the LAPACK calls of one program's
    iteration, whatever the number of programs, and a program leaves the
    batch when it stops.  A ``LinAlgError`` of a stacked call is traced to
    the programs whose own blocks raise it, which stop as they would alone.

    The scalars (residuals, gap, sigma, step length, stop tests), the
    scaling T A (A has the program's own number of columns) and the Schur
    solve stay per program.  The Schur system keeps its own size: padding the
    systems to one size could change the order of LAPACK's factorisation,
    and so make a program's bits depend on its batch.  The stacked calls do
    not, so each program gets the iterates, status and result of its lone
    solve (a batch of one), bit for bit.
    """
    solves = [_solve(prob) for prob in probs]
    results: list = [None] * len(solves)
    waiting: dict[int, tuple] = {}

    def resume(i: int, out) -> None:
        try:
            if isinstance(out, np.linalg.LinAlgError):
                waiting[i] = solves[i].throw(out)
            else:
                waiting[i] = solves[i].send(out)
        except StopIteration as done:
            results[i] = done.value
            waiting.pop(i, None)

    for i in range(len(solves)):
        resume(i, None)
    while waiting:
        kernel = next(iter(waiting.values()))[0]
        batch = [i for i, (k, _) in waiting.items() if k is kernel]
        for i, out in zip(batch, _run_kernel(kernel, [waiting[i][1] for i in batch])):
            resume(i, out)
    return results


def _solve(prob: SDProblem):
    """The iteration of ``minimize_many`` on one program, as a generator: at each
    slab kernel it yields (kernel, item) and is sent the item's result, or
    thrown the ``LinAlgError`` of the item's own call; it returns the
    ``SDPResult``."""
    if prob.objective is None:
        raise ValueError("minimize_many needs an objective")
    prog = Program(prob)
    q = prog.functional(prob.objective)
    if prog.n_eq:
        left, sv, vh = np.linalg.svd(prog.g_eq)
        null = vh[prog.n_eq :].T
        x0 = -vh[: prog.n_eq].T @ ((left.T @ prog.c_eq) / sv)
    else:
        null, x0 = np.eye(prog.n_vars), np.zeros(prog.n_vars)
    a = (prog.g_graph @ null)[prog.order]
    h = (prog.g_graph @ x0 + prog.c_graph)[prog.order]
    q_red = null.T @ q
    e = (prog.pair[0] == prog.pair[1]).astype(float)
    degree = float(e.sum())
    root = math.sqrt(degree)
    col_norms = np.linalg.norm(a, axis=0)
    ratio = float(np.max((1.0 + np.abs(q_red)) / (1.0 + col_norms), initial=0.0))
    xi = max(10.0, root, degree * ratio)
    eta = max(10.0, root, float(np.linalg.norm(h)), float(np.max(col_norms, initial=0.0)))
    u, s, z = np.zeros(null.shape[1]), eta * e, xi * e
    gap_start = float(s @ z)
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
        if it == IPM_MAX_ITER or gap > gap_start / GAP_TOL:
            break
        try:
            cone = yield _scaled_cones, (prog, s, z)
            lam = cone.lam
            m = cone.scale(a)
            schur = m.T @ m
            t_rp = yield _scale_many, (cone, r_p)

            def newton(rhs):
                v = rhs / cone.mid
                du = np.linalg.solve(schur, m.T @ (v - t_rp) + r_d)
                dz = v - t_rp - m @ du
                return du, v - dz, dz

            _, ds_a, dz_a = newton(-lam * lam)
            alpha = min(1.0, (yield _max_steps, (cone, (ds_a, dz_a))))
            sigma = (float((lam + alpha * ds_a) @ (lam + alpha * dz_a)) / gap) ** 3
            corr = yield _jordans, (cone, ds_a, dz_a)
            du, ds, dz = newton(sigma * gap / degree * e - lam * lam - corr)
            alpha = min(1.0, STEP_TO_BOUNDARY * (yield _max_steps, (cone, (ds, dz))))
        except np.linalg.LinAlgError:
            break
        u = u + alpha * du
        s = s + alpha * (r_p + a @ du)  # = T^-1 ds~, by the linearised r_p + A du - ds = 0
        z = z + alpha * (yield _scale_adjoint_many, (cone, dz))
        it += 1
    assign = prog.get_vars(x)
    if "primal" not in res:
        res.update(_recheck(prob, assign))
    return SDPResult(status, assign, res, it, dual=z[np.argsort(prog.order)], program=prog)
