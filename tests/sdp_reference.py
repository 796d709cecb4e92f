"""The generic semidefinite layer the library used before it solved the
capped ball in its own block form, kept as the oracle of that solver.

``Term`` ... ``Program`` pose and compile a problem over named Hermitian
variables (s = G x + c in K, G_eq x + c_eq = 0 over the rvec coordinates of
the variables, with the slab layout of its PSD blocks); ``minimize_many`` is
the primal-dual interior-point method on that compile (an equality null
space from the ``svd`` of G_eq, Nesterov-Todd scaling from a full ``svd``
per block, Mehrotra's predictor-corrector, several programs stepped
together); ``_recheck`` and ``Program.farkas`` are its two certificates;
``capped_ball`` poses ``entropies.d_max_smooth``'s min t program in it, with
the corner of each G_b pinned entry by entry: by default in the (r + d)
pose, Watrous's block on supp(rho_b) (+) C^d, which the library no longer
takes and which stays the oracle of its values, or with ``on_support`` in
the library's pose, the oracle of its certificates.
The constants, the rvec maps and the tolerance tests are the library's
own (``povmcomp.sdp``); its Farkas rule (``WITNESS_RATIO``,
``witness_fires``) is its own, an oracle independent of the library's
weak-duality lower end.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from povmcomp.sdp import (  # noqa: F401  (re-exported for the tests)
    FEASIBLE_TOL,
    GAP_TOL,
    IPM_MAX_ITER,
    MAX_VAR_REALS,
    STEP_TO_BOUNDARY,
    ProblemTooLarge,
    _congruence,
    _ct,
    _rvec_basis,
    herm_to_rvec,
    rvec_size,
    rvec_to_herm,
    within_tolerance,
)

# the reference's own infeasibility rule: a Farkas witness fires when
# gap > 0 and |r| <= WITNESS_RATIO * gap, which proves that no feasible
# point has norm below 1 / WITNESS_RATIO
WITNESS_RATIO = 0.1


def witness_fires(gap: float, resid: float) -> bool:
    """The reference's Farkas test: gap > 0 and |r| <= WITNESS_RATIO * gap."""
    return gap > 0.0 and resid <= WITNESS_RATIO * gap


@dataclass(frozen=True)
class Term:
    """One affine contribution coeff * map(X_var)."""

    var: str
    kind: str  # "id" | "kron" | "subblock"
    coeff: float = 1.0
    left: np.ndarray | None = None  # the kron term's left factor
    start: int = 0  # first row and column of the subblock
    stop: int | None = None  # its end, None for the variable's own

    def apply(self, x: np.ndarray) -> np.ndarray:
        """coeff * map(x) for x of shape (..., d, d), broadcast over leading axes."""
        if self.kind == "id":
            return self.coeff * x
        if self.kind == "kron":
            return self.coeff * _kron(self.left, x)
        if self.kind == "subblock":
            # the principal subblock of rows and columns ``start`` .. ``stop``
            return self.coeff * x[..., self.start : self.stop, self.start : self.stop]
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

    def plus_subblock(
        self, var: str, start: int, coeff: float = 1.0, stop: int | None = None
    ) -> "AffineExpr":
        self.terms.append(Term(var, "subblock", coeff, start=start, stop=stop))
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
            iu = np.triu_indices(d, k=1)
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


def recheck(prob: SDProblem, assign: dict[str, np.ndarray]) -> tuple[bool, dict[str, float]]:
    """Whether ``assign`` satisfies ``prob`` to ``FEASIBLE_TOL``, by
    ``_recheck``'s independent evaluation, and its residuals."""
    res = _recheck(prob, assign)
    return within_tolerance(res), res


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


def _entry_pin(var: str, dim: int, i: int, j: int, value: float, imag: bool) -> ScalarExpr:
    f = np.zeros((dim, dim), dtype=complex)
    if imag:
        f[i, j] = 0.5j
        f[j, i] = -0.5j
    else:
        f[i, j] = 0.5
        f[j, i] += 0.5
    return ScalarExpr(-value, ((var, f),))


def capped_ball(ball: tuple, eps: float, on_support: bool = False) -> SDProblem:
    """The min t program of D_max^eps(rho || sigma), whose optimum is
    2^(D_max^eps): rho' in the fidelity ball of rho, split into the
    sub-blocks of ``ball`` = (a plain list of (Lambda_b, sigma_b), s0), as
    ``plain`` gives ``entropies._ball_blocks``' stacks, each in the
    eigenbasis of its component's rho_c, with each sub-block's cap
    t sigma_b - rho'_b PSD, t a 1x1 variable; ball{i} is the i-th
    sub-block.

    Per sub-block b that carries rho the program holds one variable G_b
    of size r + d with the top-left corner pinned to rho_b's spectrum and
    Z = the off-diagonal corner; sum_b Re Tr' Z_b >= sqrt(1 - eps^2)
    encodes the fidelity constraint.  rho'_b is the trailing subblock of
    G_b, with no rotation: sigma_b is already in rho_b's basis.  By
    default G_b is PSD, Watrous's block on supp(rho_b) (+) C^d: this pose
    is the oracle of the library's values.  With ``on_support`` each
    sub-block is posed as the library poses it (``povmcomp.sdp``): one
    with r < d has the leading 2r x 2r principal block of G_b PSD (the
    fidelity on supp(rho_b) alone), rho'_b PSD and Z's columns past r
    pinned to 0; the value is the same, since F(rho_b, rho'_b) =
    F(Lambda_b, rho'_b,rr).  A 1x1 sub-block's cap is a scalar row,
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
    real = not any(np.iscomplexobj(sigma) for _, sigma in blocks)
    prob = SDProblem()
    tr_terms, z_terms = [], []
    for i, (eigs, sigma) in enumerate(blocks):
        r, d, var = len(eigs), len(sigma), f"ball{i}"
        prob.add_var(var, r + d)
        split = on_support and r < d
        if split:
            prob.require_psd(AffineExpr.zero(2 * r).plus_subblock(var, 0, stop=2 * r))
            prob.require_psd(AffineExpr.zero(d).plus_subblock(var, r))
        else:
            prob.require_psd(AffineExpr.zero(r + d).plus_var(var))
        for a in range(r):
            prob.require_eq(_entry_pin(var, r + d, a, a, float(eigs[a]), imag=False))
            for b in range(a + 1, r):
                prob.require_eq(_entry_pin(var, r + d, a, b, 0.0, imag=False))
                if not real:
                    prob.require_eq(_entry_pin(var, r + d, a, b, 0.0, imag=True))
            # Z's columns past r, on supp(rho_b) alone
            for b in range(2 * r, r + d if split else 0):
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
    prob.require_eq(ScalarExpr(-1.0, tuple(tr_terms)))
    prob.require_geq(ScalarExpr(-math.sqrt(max(0.0, 1.0 - eps * eps)), tuple(z_terms)))
    if free:
        prob.require_geq(trace_functional("w", 1))
    prob.add_var("t", 1)
    prob.objective = trace_functional("t", 1)
    for i, (eigs, sigma) in enumerate(blocks):
        if len(sigma) == 1:
            # a 1x1 sub-block carries rank 1, so G_b is 2x2
            tail = np.zeros((2, 2), dtype=complex)
            tail[1, 1] = -1.0
            prob.require_geq(ScalarExpr(0.0, (("t", sigma), (f"ball{i}", tail))))
        else:
            cap = AffineExpr.zero(len(sigma)).plus_kron(sigma, "t")
            prob.require_psd(cap.plus_subblock(f"ball{i}", len(eigs), -1.0))
    if free:
        prob.require_geq(ScalarExpr(0.0, (("t", free_mass * one), ("w", -one))))
    return prob


def plain(eigs, sigma, free_mass) -> tuple[list, float]:
    """A stacked ball (the per-group spectra and sigma_b of
    ``entropies._ball_blocks`` or ``povmcomp.sdp.Ball``, and s0) as
    ``capped_ball``'s input: a plain list of (Lambda_b, sigma_b), group by
    group, the order of the block form's sub-blocks, and s0."""
    return list(zip(_per_block(eigs), _per_block(sigma))), free_mass


def _per_block(stacks) -> list:
    """Per-group stacks of a block-form point or dual as one matrix per
    sub-block, group by group."""
    return [m for stack in stacks for m in stack]


def assignment_of(ball, point) -> dict[str, np.ndarray]:
    """A block-form point (``povmcomp.sdp.BallPoint``) of ``ball`` as an
    assignment of ``capped_ball``'s variables: ball{i} = G_i =
    [[Lambda_i, Z_i], [Z_i^H, rho'_i]], Z_i padded with zero columns to
    r x d, t and, with s0 > 0, w."""
    assign = {}
    blocks, _ = plain(ball.eigs, ball.sigma, ball.free_mass)
    for i, ((eigs, sigma), z, rho) in enumerate(
        zip(blocks, _per_block(point.z), _per_block(point.rho))
    ):
        r, d = len(eigs), len(sigma)
        g = np.zeros((r + d, r + d), dtype=np.result_type(z, rho))
        g[np.arange(r), np.arange(r)] = eigs
        g[:r, r : r + z.shape[1]] = z
        g[r:, :r] = g[:r, r:].conj().T
        g[r:, r:] = rho
        assign[f"ball{i}"] = g
    if ball.free_mass > 0.0:
        assign["w"] = np.full((1, 1), point.w)
    assign["t"] = np.full((1, 1), point.t)
    return assign


def slack_of(ball, dual) -> np.ndarray:
    """A block-form dual (``povmcomp.sdp.BallDual``) of ``ball`` as a
    slack-side vector of ``capped_ball``'s compile with ``on_support``: one
    rvec per PSD constraint in problem order (each G_i, followed by its
    rho'_i in the support pose, then the caps C_i with d > 1), over the program's
    field, then one weight per inequality (the fidelity row, w >= 0, the
    caps with d = 1, t s0 - w >= 0)."""
    blocks, _ = plain(ball.eigs, ball.sigma, ball.free_mass)
    real = not any(np.iscomplexobj(sigma) for _, sigma in blocks)
    caps = _per_block(dual.cap)
    big = [c for (_, sigma), c in zip(blocks, caps) if len(sigma) > 1]
    psd_of = _per_block([[None] * len(g) if ps is None else ps for g, ps in zip(dual.g, dual.psd)])
    fidelity = [m for g, p in zip(_per_block(dual.g), psd_of) for m in [g] + [p] * (p is not None)]
    dtype = float if real else complex
    psd = [herm_to_rvec(np.asarray(m, dtype=dtype), real) for m in fidelity + big]
    free = ball.free_mass > 0.0
    weights = [dual.fid] + [dual.floor] * free
    weights += [float(c[0, 0].real) for (_, sigma), c in zip(blocks, caps) if len(sigma) == 1]
    weights += [dual.free_cap] * free
    return np.concatenate(psd + [np.array(weights)])
