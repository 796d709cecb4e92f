"""Small dense semidefinite engine: a feasibility solver and a minimizer.

Problems are posed over named Hermitian variables with affine Hermitian
expressions required PSD plus scalar equalities/inequalities.  ``Program``
compiles a problem once into s = G x + c in K, G_eq x + c_eq = 0 over the
rvec coordinates of its variables (K the PSD cones and the orthant of the
inequalities).  Two solvers start from that compile step:

- ``Session.solve`` (``solve`` without an objective) decides feasibility by
  Douglas-Rachford splitting.  It serves the lambda bisection of
  ``entropies.i_max_tilde``, whose cap is not jointly linear in lambda and
  the state.
- ``minimize`` (``solve`` with an objective) is a primal-dual
  interior-point method.  It serves ``entropies.d_max_smooth`` (and with it
  ``i_max_smooth``, the protocol thresholds and the one-shot region),
  whose min t program it solves in one call.

The Douglas-Rachford solver alternates between the affine subspace, via an
exact least-squares projection, and the PSD cone, via eigenvalue clipping.
The step is over-relaxed, y <- y + RELAX (pk - pa) with RELAX = 1.5 in
(0, 2) (Eckstein, Bertsekas, Math. Program. 55, 1992), which takes fewer
iterations to a verdict than the plain step (RELAX = 1).  Everything is
plain numpy, deterministic, and warm-startable across the outer bisections
that drive it.

The iterate stores each Hermitian block by its isometric real vector
(``herm_to_rvec``/``rvec_to_herm``).  A ``Session`` adds to the compiled
problem the flat kernels of its iteration, so that an iteration is a few
fixed matrix-vector products and one stacked eigendecomposition per block
dimension of 3 or more:

- set-up probes the linear map G once per (constraint, variable), over the
  stacked basis ``rvec_to_herm(np.eye(d*d), d)`` (``Term.apply`` broadcasts
  over a leading axis);
- the affine projection is one ``n_vars x total`` map A and an offset b:
  ``x = A y + b; s = G x + c``, with H^-1, W and S^-1 folded into A at
  set-up and b recomputed by ``update_constants``;
- the cone projection of the blocks of dimension d >= 3 gathers each
  dimension's rvec entries straight into the float view of a complex
  (n_blocks, d, d) stack and scatters the clipped stack back, with
  precomputed indices and the same bits as ``rvec_to_herm``/
  ``herm_to_rvec``, which are left to set-up and ``get_vars``;
- the blocks of dimension 1 and 2 are projected in closed form on their
  rvec slots, with no ``eigh`` call: a 1x1 block is clipped at 0, and a 2x2
  block's eigenvalues m -+ r and its projection are a few array operations
  over all such blocks at once (``_SmallKernel``).

Every verdict is certified by one of two rules, and neither rests on the
kernels above:

- A point is feasible when ``recheck`` accepts it: ``_recheck`` evaluates
  its constraints again from the problem's own expressions.  The
  Douglas-Rachford "feasible" verdict needs this of a shadow point, and
  ``minimize`` returns "optimal" only for a primal point that passes it.
- A problem is infeasible when a Farkas witness passes ``witness_fires``:
  a cone element w with gap > 0 and |G^T w + G_eq^T nu| <= WITNESS_RATIO * gap
  (``Program.farkas``), which proves that no feasible point has norm below
  1 / WITNESS_RATIO.  The Douglas-Rachford solver builds w from its
  displacement pa - pk, which converges to the least-norm element of
  cl(Aff - K), Aff the affine set and K the cone (Banjac, Goulart,
  Stellato, Boyd, JOTA 2019; Liu, Ryu, Yin, Math. Program. 2019), with the
  relaxed step as with the plain one (see ``Session.solve``).
  ``d_max_smooth`` builds w from ``minimize``'s dual z and tests it on the
  program just below the optimum.

A Douglas-Rachford solve that earns neither verdict within ``max_iter``
iterations (``MAX_ITER`` unless the caller passes another) reports
"maxIterations"; so does a ``minimize`` solve that reaches no certified
optimum within ``IPM_MAX_ITER`` steps.

Fixed settings: the step is relaxed by ``RELAX``; a shadow point is
checked every ``CHECK_EVERY`` iterations and counts as feasible when its
cone violation is at most ``FEASIBLE_TOL``; ``minimize`` stops at a
relative gap and dual residual of ``GAP_TOL`` and steps
``STEP_TO_BOUNDARY`` of the way to the cone's boundary; ``MAX_VAR_REALS``
caps the variables' real dimension, since set-up inverts a dense matrix of
that size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg as la


# an "infeasible" verdict needs |G^T w + G_eq^T nu| <= WITNESS_RATIO * gap
WITNESS_RATIO = 0.1
MAX_ITER = 20000
CHECK_EVERY = 20
# over-relaxation of the Douglas-Rachford step, in (0, 2)
RELAX = 1.5
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
    kind: str  # "id" | "kron" | "marginal_product" | "subblock_conj"
    coeff: float = 1.0
    left: np.ndarray | None = None
    split: tuple[int, ...] | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        """coeff * map(x) for x of shape (..., d, d), broadcast over leading axes."""
        if self.kind == "id":
            return self.coeff * x
        if self.kind == "kron":
            return self.coeff * _kron(self.left, x)
        if self.kind == "marginal_product":
            d1, d2 = self.split
            x4 = x.reshape(x.shape[:-2] + (d1, d2, d1, d2))
            y = np.einsum("...aiaj->...ij", x4)
            return self.coeff * _kron(self.left, y)
        if self.kind == "subblock_conj":
            # trailing principal subblock, rotated back by the fixed unitary
            (i0,) = self.split
            sub = x[..., i0:, i0:]
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


@dataclass
class SDPResult:
    status: str  # "feasible" | "infeasible" | "optimal" | "maxIterations"
    assignment: dict[str, np.ndarray]
    residuals: dict[str, float]
    iterations: int
    warm: np.ndarray | None = None
    witness: tuple[np.ndarray, np.ndarray] | None = None  # (w, nu) of an "infeasible" verdict
    dual: tuple[np.ndarray, np.ndarray] | None = None  # (z, y) of a ``minimize`` result


_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class _ConeKernel:
    """The PSD blocks of one dimension d >= 3: rvec <-> complex (n, d, d)
    stack, projected by a stacked ``eigh``.

    ``gather`` and ``scatter`` give the same bits as ``rvec_to_herm`` and
    ``herm_to_rvec`` on every block (see ``Session._index_blocks``).
    """

    d: int
    m: int  # off-diagonal pairs, d (d - 1) / 2
    idx: np.ndarray  # (n, d*d) iterate positions of each block's rvec
    src: np.ndarray  # (n, d + 4m) iterate positions, in float-view order
    dst: np.ndarray  # (d + 4m,) float-view positions of src
    back: np.ndarray  # (d*d,) float-view positions of the rvec slots
    # imaginary parts: the upper triangle times 1/sqrt 2, the lower one times
    # -1/sqrt 2, the products numpy's complex-by-real division in
    # ``rvec_to_herm`` makes (a plain division differs by an ulp)
    im_scale: np.ndarray

    def gather(self, y: np.ndarray) -> np.ndarray:
        d, m = self.d, self.m
        vals = y[self.src]
        vals[:, d : d + 2 * m] /= _SQRT2
        vals[:, d + 2 * m :] *= self.im_scale
        stack = np.zeros((len(vals), d, d), dtype=complex)
        stack.view(float).reshape(len(vals), 2 * d * d)[:, self.dst] = vals
        return stack

    def scatter(self, stack: np.ndarray) -> np.ndarray:
        flat = stack.view(float).reshape(len(stack), 2 * self.d * self.d)[:, self.back]
        flat[:, self.d :] *= _SQRT2
        return flat

    def project(self, y: np.ndarray) -> np.ndarray:
        """(n, d*d) rvecs of the blocks with their negative eigenvalues clipped."""
        w, v = np.linalg.eigh(self.gather(y))
        np.clip(w, 0.0, None, out=w)
        return self.scatter((v * w[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2)))

    def min_eig(self, y: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(self.gather(y)).min())


# maps a 2x2 block's rvec (x11, x22, sqrt2 Re b, sqrt2 Im b) to the rows
# (m, (x11 - x22) / 2, Re b, Im b)
_SPLIT_2X2 = np.array(
    [
        [0.5, 0.5, 0.0, 0.0],
        [0.5, -0.5, 0.0, 0.0],
        [0.0, 0.0, 1 / _SQRT2, 0.0],
        [0.0, 0.0, 0.0, 1 / _SQRT2],
    ]
)
# least positive float: a zero denominator below has a zero numerator
_TINY = 5e-324


@dataclass(frozen=True)
class _SmallKernel:
    """The PSD blocks of one dimension d <= 2, in closed form on the rvec slots.

    A 1x1 block is clipped at 0.  A 2x2 block v = (x11, x22, sqrt2 Re b,
    sqrt2 Im b) has the eigenvalues m -+ r with m = (x11 + x22) / 2 and
    r = sqrt(((x11 - x22) / 2)^2 + |b|^2).  Its projection is v when
    m - r >= 0, 0 when m + r <= 0, and otherwise the top eigenvalue times
    its eigenprojector, (m + r) / 2r * (v - (m - r) (1, 1, 0, 0)).  All three
    are scale * (v - shift (1, 1, 0, 0)) with shift = min(m - r, 0) and
    scale = max(m + r, 0) / (m + r - shift), which is 0 / 0 only on a zero
    block or a multiple of -I, where it is read as 0.
    """

    d: int
    idx: np.ndarray  # (d*d, n) iterate positions, one row per rvec slot

    def _spectrum(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The blocks' rvec rows and their smallest and largest eigenvalues."""
        v = y[self.idx]
        m, half_diff, re_b, im_b = _SPLIT_2X2 @ v
        r = np.hypot(half_diff, np.hypot(re_b, im_b))
        return v, m - r, m + r

    def project(self, y: np.ndarray) -> np.ndarray:
        if self.d == 1:
            return np.clip(y[self.idx], 0.0, None)
        v, lo, hi = self._spectrum(y)
        shift = np.minimum(lo, 0.0)
        v[:2] -= shift
        v *= np.maximum(hi, 0.0) / np.maximum(hi - shift, _TINY)
        return v

    def min_eig(self, y: np.ndarray) -> float:
        if self.d == 1:
            return float(y[self.idx].min())
        return float(self._spectrum(y)[1].min())


def _structure(prob: SDProblem) -> tuple:
    """What a program's compiled maps depend on besides the constant parts
    (the terms themselves are the caller's promise)."""
    dims = [e.dim for e in prob.psd_constraints]
    return list(prob.variables), dims, len(prob.equalities), len(prob.inequalities)


class Program:
    """One problem compiled over the rvec coordinates of its variables.

    The problem reads s = G x + c in K, G_eq x + c_eq = 0: G is the linear
    map probed once per (constraint, variable), with the PSD blocks' rvec
    rows first and one row per inequality after them, G_eq has one row per
    equality, and K is the product of the PSD cones and the nonnegative
    orthant of the inequalities.  The cone kernels project onto K.  Both
    solvers start from this compile step, and ``farkas`` tests a Farkas
    witness against it.
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
        self.structure = _structure(prob)
        self.block_dims = [e.dim for e in prob.psd_constraints]
        self.n_graph = sum(d * d for d in self.block_dims) + len(prob.inequalities)
        self._index_blocks()
        self.n_eq = len(prob.equalities)
        full = self._columns()
        self.g_graph = full[: self.n_graph]
        self.g_eq = full[self.n_graph :]
        # least-squares multiplier of the infeasibility witness: nu = nu_map @ w
        # minimizes |G^T w + G_eq^T nu| (G_eq has full row rank, as both solvers need)
        if self.n_eq:
            self.nu_map = -np.linalg.solve(self.g_eq @ self.g_eq.T, self.g_eq @ self.g_graph.T)
        else:
            self.nu_map = np.zeros((0, self.n_graph))
        self._set_constants(prob)

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
        variable are summed before the conversion, as ``evaluate_linear``
        sums them.
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

    def update_constants(self, prob: SDProblem) -> None:
        """Swap constant parts; the linear structure must be unchanged.

        Raises ValueError when the variables, the PSD block dimensions or
        the numbers of equalities and inequalities differ from the
        program's, since the compiled maps would then be wrong.
        """
        if _structure(prob) != self.structure:
            raise ValueError(
                "update_constants needs the compiled structure (variables, PSD block "
                f"dimensions, #equalities, #inequalities) {self.structure}, "
                f"got {_structure(prob)}"
            )
        self._set_constants(prob)

    def _set_constants(self, prob: SDProblem) -> None:
        self.prob = prob
        rows = [herm_to_rvec(e.const) for e in prob.psd_constraints]
        rows.append(np.array([iq.const for iq in prob.inequalities]))
        self.c_graph = np.concatenate(rows) if self.n_graph else np.zeros(0)
        self.c_eq = np.array([eq.const for eq in prob.equalities])

    def _index_blocks(self) -> None:
        """Slots of the PSD blocks and the cone kernels, one set per block dimension.

        ``block_slots[d]`` holds, per block of dimension d, the positions of
        its rvec in the slack s (blocks in order of appearance).  The n blocks
        of dimension d >= 3 go into a complex (n, d, d) stack through its
        float view (n, 2 d^2), where entry (i, j) has its real part at
        2 (i d + j) and its imaginary part next to it.  ``src`` picks, per
        block, the rvec slots of the diagonal, of the upper real parts (twice:
        upper and lower triangle) and of the imaginary parts (twice) of the
        matrix, and ``dst`` their float-view positions.  ``back`` is the
        float-view positions of the rvec slots, in rvec order.
        """
        offsets: dict[int, list[int]] = {}
        pos = 0
        for d in self.block_dims:
            offsets.setdefault(d, []).append(pos)
            pos += d * d
        self.block_slots = {
            d: np.array(offs)[:, None] + np.arange(d * d) for d, offs in offsets.items()
        }
        self._cone_kernels = {}
        for d, slots in self.block_slots.items():
            idx = slots + self.n_vars
            if d <= 2:
                self._cone_kernels[d] = _SmallKernel(d, idx.T.copy())
                continue
            iu, di = _herm_indices(d)
            m = iu[0].size
            re_slots, im_slots = d + np.arange(m), d + m + np.arange(m)
            src = np.concatenate([np.arange(d), re_slots, re_slots, im_slots, im_slots])
            diag, upper, lower = (2 * (i * d + j) for i, j in (di, iu, iu[::-1]))
            dst = np.concatenate([diag, upper, lower, upper + 1, lower + 1])
            back = np.concatenate([diag, upper, upper + 1])
            im_scale = np.repeat([1.0 / _SQRT2, -1.0 / _SQRT2], m)
            self._cone_kernels[d] = _ConeKernel(d, m, idx, idx[:, src], dst, back, im_scale)
        self.n_psd = pos
        self._scalar_pos = self.n_vars + pos

    # -- cone --------------------------------------------------------------
    def project_cone(self, y: np.ndarray) -> np.ndarray:
        out = y.copy()
        for kern in self._cone_kernels.values():
            out[kern.idx] = kern.project(y)
        out[self._scalar_pos :] = np.clip(y[self._scalar_pos :], 0.0, None)
        return out

    def cone_violation(self, y: np.ndarray) -> float:
        viol = 0.0
        for kern in self._cone_kernels.values():
            viol = max(viol, -kern.min_eig(y))
        if y.size > self._scalar_pos:
            viol = max(viol, -float(np.min(y[self._scalar_pos :], initial=0.0)))
        return viol

    def get_vars(self, y: np.ndarray) -> dict[str, np.ndarray]:
        return {lab: rvec_to_herm(y[o : o + d * d], d) for lab, (o, d) in self.var_offsets.items()}

    @property
    def total(self) -> int:
        return self.n_vars + self.n_graph

    # -- infeasibility witness -----------------------------------------------
    def farkas(self, slack: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Farkas witness (w, nu, gap, |r|) from a slack-side vector.

        w is ``slack`` (one rvec per PSD block, then one weight per
        inequality) projected onto the cone and normalised; nu is its
        least-squares multiplier; r = G^T w + G_eq^T nu and
        gap = -(<c, w> + <c_eq, nu>).  For every feasible x,
        0 <= <w, G x + c> = <r, x> - gap, so |x| >= gap / |r|;
        ``witness_fires`` reads that bound.
        """
        full = np.zeros(self.total)
        full[self.n_vars :] = slack
        w = self.project_cone(full)[self.n_vars :]
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


class Session(Program):
    """Douglas-Rachford solver state for one problem structure.

    Set-up adds to the compiled ``Program`` the affine map x = A y + b of
    the module docstring.  ``update_constants`` (same structure, new
    constant parts, as in a bisection over one scalar) recomputes b alone.
    The verdicts do not rest on the kernels: ``recheck`` evaluates a
    feasible point from the problem's own expressions, and the witness's
    gap and residual use G, which equals a per-basis probe bit for bit.
    """

    def __init__(self, prob: SDProblem, max_iter: int = MAX_ITER):
        super().__init__(prob)
        self.max_iter = max_iter
        self._build_matrices()
        self._set_offset()

    def _build_matrices(self) -> None:
        """Fold the factored affine projection into one map.

        With H = I + G^T G, W = H^-1 G_eq^T and S = G_eq W, the projection
        x = P_x (x0 + G^T (s0 - c)) - W S^-1 c_eq has P_x = (I - W S^-1 G_eq) H^-1,
        so x = A y + b with A = P_x [I | G^T]; b is set by ``update_constants``.
        """
        h_inv = np.linalg.inv(np.eye(self.n_vars) + self.g_graph.T @ self.g_graph)
        if self.n_eq:
            w = h_inv @ self.g_eq.T
            self.eq_map = w @ np.linalg.inv(self.g_eq @ w)
            p_x = h_inv - self.eq_map @ (self.g_eq @ h_inv)
        else:
            self.eq_map = np.zeros((self.n_vars, 0))
            p_x = h_inv
        self.affine_map = np.concatenate([p_x, p_x @ self.g_graph.T], axis=1)

    def update_constants(self, prob: SDProblem) -> None:
        super().update_constants(prob)
        self._set_offset()

    def _set_offset(self) -> None:
        self.affine_offset = -(self.affine_map[:, self.n_vars :] @ self.c_graph)
        self.affine_offset -= self.eq_map @ self.c_eq

    def project_cone(self, y: np.ndarray) -> np.ndarray:
        """``Program.project_cone``, named on ``Session`` itself so that a
        probe of the class's own attributes (as bench/spans.py sets) times
        the iteration's cone projections."""
        return super().project_cone(y)

    def project_affine(self, y: np.ndarray) -> np.ndarray:
        """Exact projection onto {(x, s): G x + c = s, G_eq x + c_eq = 0}."""
        x = self.affine_map @ y + self.affine_offset
        return np.concatenate([x, self.g_graph @ x + self.c_graph])

    def witness(self, displacement: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """``farkas`` of the negated slack part of a displacement pa - pk."""
        return self.farkas(-displacement[self.n_vars :])

    # -- main loop ----------------------------------------------------------
    def solve(self, warm: np.ndarray | None = None) -> SDPResult:
        """Over-relaxed Douglas-Rachford feasibility solve with two
        certified verdicts.

        An iteration takes pa = ``project_affine(y)``, pk =
        ``project_cone(2 pa - y)`` and y <- y + RELAX (pk - pa).  With
        RELAX in (0, 2) this is the relaxed splitting of Eckstein and
        Bertsekas (Math. Program. 55, 1992); RELAX = 1 is the plain step.
        Every ``CHECK_EVERY`` iterations the shadow point ``project_affine(y)``
        is tested: "feasible" when its cone violation is at most
        ``FEASIBLE_TOL`` and ``recheck`` confirms it from the problem's own
        expressions.
        Otherwise the displacement pa - pk of the iteration, which converges
        to the least-norm element of cl(Aff - K) (nonzero exactly when the
        affine set and the cone are strictly separated) for every RELAX in
        (0, 2) (Banjac et al., JOTA 2019, prove it for the relaxed
        iteration), gives a ``witness``.  The relaxation changes only how
        soon a witness passes the test, not what passing proves: the test
        below is a Farkas inequality on w and nu themselves, whatever
        iterate they came from.  "infeasible" is returned only when
        ``witness_fires``: gap > 0 and |r| <= WITNESS_RATIO * gap, which
        proves that no feasible point has norm below 1 / WITNESS_RATIO = 10.
        Every program built in
        ``entropies`` has its feasible set inside norm 3, so there the
        verdict is exact: the ball variables are PSD with
        sum_c Tr G_c = Tr rho + Tr rho' = 2, and the dense tilde program's
        rho' and Z = Re Z + i Im Z have norm at most 1 each.  A solve with
        neither verdict runs to ``max_iter`` and returns "maxIterations".
        """
        y = warm.copy() if warm is not None and warm.size == self.total else np.zeros(self.total)
        it = 0
        while it < self.max_iter:
            pa = self.project_affine(y)
            pk = self.project_cone(2 * pa - y)
            y = y + RELAX * (pk - pa)
            it += 1
            if it % CHECK_EVERY == 0 or it == self.max_iter:
                shadow = self.project_affine(y)
                viol = self.cone_violation(shadow)
                if viol <= FEASIBLE_TOL:
                    assign = self.get_vars(shadow)
                    ok, res = recheck(self.prob, assign)
                    if ok:
                        return SDPResult("feasible", assign, res, it, warm=y)
                w, nu, gap, resid = self.witness(pa - pk)
                if witness_fires(gap, resid):
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




def solve(prob: SDProblem, max_iter: int = MAX_ITER, warm: np.ndarray | None = None) -> SDPResult:
    """Feasibility solve (``Session.solve``); see module docstring for the method.

    When ``prob.objective`` is set the problem goes to ``minimize`` instead,
    which takes neither ``max_iter`` nor ``warm``.
    """
    if prob.objective is not None:
        return minimize(prob)
    return Session(prob, max_iter).solve(warm=warm)


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
    ``IPM_MAX_ITER`` iterations or when a block stops being numerically
    positive definite, it returns "maxIterations" with the last point.
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
        if it == IPM_MAX_ITER:
            break
        try:
            cone = _ScaledCone(prog, s, z)
        except np.linalg.LinAlgError:
            break
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
