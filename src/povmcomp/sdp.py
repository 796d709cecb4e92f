"""Interior-point solver of the capped fidelity ball, in its own block form.

The library poses one program family: the min t program of
``entropies.d_max_smooth``, whose least t is 2^(D_max^eps).  A value is a
``Ball``: sub-blocks b with rho_b's positive spectrum Lambda_b (r_b of
them) and sigma_b (d_b x d_b, positive definite) in rho_b's eigenbasis,
the mass s0 of the rho-free sub-blocks and the fidelity
c = sqrt(1 - eps^2).  The sub-blocks are held as stacks, one per group
of one (r, d, field) in order of first appearance, and are ordered group
by group (group-major): a point, a dual, the layout of a batch and every
kernel read them in that order.  Its variables are Z_b (r_b x r_b),
rho'_b (d_b x d_b), t and, when s0 > 0, w:

    G_b = [[Lambda_b, Z_b], [Z_b^H, rho'_b,rr]] PSD (2 r_b square),
    rho'_b PSD (when r_b < d_b),
    C_b = t sigma_b - rho'_b PSD (a scalar row when d_b = 1),
    sum_b Re Tr Z_b >= c,
    w >= 0,  t s0 - w >= 0,
    sum_b Tr rho'_b + w = 1,

min t, with rho'_b,rr the leading r_b x r_b block of rho'_b.  The
fidelity row is the semidefinite form of F(rho, rho') >= c:
[[rho, Z], [Z^H, rho']] PSD with Re Tr Z >= c (Watrous), posed per
sub-block in rho_b's eigenbasis, where rho_b is Lambda_b (+) 0.  So
sqrt(rho_b) rho'_b sqrt(rho_b) is sqrt(Lambda_b) rho'_b,rr
sqrt(Lambda_b) (+) 0 and F(rho_b, rho'_b) = F(Lambda_b, rho'_b,rr): the
fidelity never sees rho'_b off supp(rho_b) (Tomamichel,
arXiv:1504.00233).  So Watrous's block is posed on supp(rho_b) alone,
and rho'_b PSD, which G_b implies when r_b = d_b, is asked of the rest
as its own block.  One invariant keeps this pose strictly feasible:
every sigma_b is positive definite (``entropies._ball_blocks`` cuts each
value to supp(sigma) first), so a positive definite rho'_b lies strictly
below t sigma_b at a large enough t.  Where sigma_b is singular the cap
holds rho'_b to supp(sigma_b), on a face of its cone, and the solve was
seen to stall there.  Lambda_b is data in G_b's corner, so no
equality pins it.  The argument that this program has the value of
D_max^eps (the cut, the split into sub-blocks, the fold of the rho-free
ones into w) is in ``entropies._ball_blocks`` and
``entropies.d_max_smooth``.

Coordinates.  Each PSD block is stored by its isometric real vector
(``herm_to_rvec``/``rvec_to_herm``, one matrix product with the cached
basis of ``_rvec_basis``): d(d+1)/2 coordinates over the real symmetric
matrices (the diagonal and sqrt2 times the upper triangle), d^2 over the
Hermitian ones.  One cached table, ``_rvec_coords``, fixes their order:
the entry (i, j) and the part of each coordinate.  The basis, the rvec
positions a sub-block's free reals are read from (``_geometry``) and a
batch's eigenvalue pairs (``_Layout``) are all derived from it.  A
sub-block is real when its sigma_b is (``entropies`` decides it per
sub-block); the program is invariant under conjugating one sub-block's
(Z_b, rho'_b) when Lambda_b and sigma_b are real, and conjugation keeps
every constraint, so a real optimum of that block is an optimum, and a
real dual has no residual along its imaginary directions.  The free reals
x of a value are, sub-block by sub-block in group-major order, G_b's rvec
coordinates off its r x r corner (Z_b's entries times sqrt2, then
rho'_b,rr's rvec, in G_b's order), then rho'_b's rvec coordinates off
rho'_b,rr (none when r = d), then t and w.  So the map
x -> (G_b, rho'_b, C_b, scalar rows) is a selection with signs, plus
t sigma_b in each cap: one sparse matrix A in coordinate form,
s = A x + h in K, with h holding Lambda_b in G_b's corner and -c in the
fidelity row.  ``MAX_VAR_REALS`` caps a value's free reals, which size
its dense Schur matrix; ``minimize_balls`` raises ``ProblemTooLarge``
before it builds anything.

The step.  A primal-dual interior-point method with Nesterov-Todd scaling
and Mehrotra's predictor-corrector (SIAM J. Optim. 2, 1992), from SDPT3's
infeasible start (Toh, Todd and Tutuncu, Optim. Methods Softw. 11, 1999):
x = 0, s = eta e, z = xi e, y = 0 (e the identity blocks and unit scalar
slots, n its degree, a_k the columns of A, q the objective's row):

    xi  = max(10, sqrt n, n max_k (1 + |q_k|) / (1 + |a_k|)),
    eta = max(10, sqrt n, |h|, max_k |a_k|).

The scaling of a block pair (S, Z): S = L L^H (``cholesky``), and
L^H Z L = V diag(lam^2) V^H (``eigh``), so R^-1 = diag(lam^-3/2) V^H L^H Z
has R^-1 S R^-H = R^H Z R = diag(lam): T(X) = R^-1 X R^-H, one k x k matrix
per block on the rvecs (``_congruence``), sqrt(z / s) on a scalar slot.
Every value keeps one dense Schur matrix H = (T A)^T (T A), assembled
from the blocks' T^T T, and the trace row is its one equality, solved by
bordering H with one row and one column:

    [[H, e], [e^T, 0]] [dx; -dy] = [A^T T^T (v - T r_p) + r_d; -r_e],

with r_p = A x + h - s, r_d = A^T z + e y - q, r_e = e^T x - 1 and v the
scaled right-hand side.  The predictor takes lam o (ds~ + dz~) =
-lam o lam, the corrector sigma mu e - lam o lam - ds~_a o dz~_a with
sigma the cube of the gap ratio the predictor would reach (X o Y =
(XY + YX) / 2); the step goes ``STEP_TO_BOUNDARY`` of the way to the
cone's boundary, at most 1, from one ``eigvalsh`` per block size of the
paired directions.  A value stops "optimal" once its dual residual and
gap <s, z> are at most ``GAP_TOL`` max(1, t) and its point passes
``recheck``; it stops "maxIterations" after ``IPM_MAX_ITER`` steps, once
its gap passes the start's gap / ``GAP_TOL`` (the iterates diverge), or
when its step's linear algebra fails.

The batch.  ``minimize_balls`` steps every value of a call together.  The
blocks of one size and field, over all the values (each value's groups in
turn), are one stack for each LAPACK and matrix kernel; each value's
scalars (residual norms, gap, sigma, step length, stop tests) are segment
sums over the joined vectors (``np.bincount``, which adds in input order);
the Schur matrices of one size are one stacked ``solve``.  A stacked call
gives each block the bits of its own call and every sum adds a value's
terms in the same order in any batch, so a value gets the result of its
lone solve, bit for bit.  A value leaves the batch when it stops; a
``LinAlgError`` is traced to the values whose own step raises it.

The certificates, in block form:

- ``recheck`` rebuilds G_b, rho'_b and C_b from a point's own
  (Z, rho', t, w), takes one ``eigvalsh`` per block size, and reads the
  scalar rows and the trace row: "primal" is the largest violation, "gap"
  |trace - 1|; a point is feasible when both are at most ``FEASIBLE_TOL``
  (``within_tolerance``).
- ``lower_bound`` reads a dual (W_b on G_b, P_b on rho'_b, V_b on C_b,
  the weights of the scalar rows) as it is given, by weak duality with t
  left free: the least t is at least t_low = (gap - X |r|) / held, X a
  bound on the norm of every feasible point's free reals.  The scalar weights are clipped
  at 0; each block's negative least eigenvalue (one ``eigvalsh`` per
  stack) is charged against a bound on the trace of its primal block.
  A value is certified on [log2 t_low, log2 t], its upper end the
  rechecked t.

Both routines read a ``BallSolve``, which the interior-point method and
``entropies._water_fill``'s closed form both return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

FEASIBLE_TOL = 1e-7
MAX_VAR_REALS = 6000
# interior-point solve: stop at this relative gap and dual residual, take
# this share of the step to the cone's boundary, give up after so many steps
GAP_TOL = 1e-6
STEP_TO_BOUNDARY = 0.99
IPM_MAX_ITER = 100


class ProblemTooLarge(ValueError):
    """A value whose free reals (the size of its Schur matrix) exceed
    ``MAX_VAR_REALS``; ``minimize_balls`` raises it before it builds
    anything."""


_SQRT2 = math.sqrt(2.0)


def rvec_size(d: int, real: bool = False) -> int:
    """The rvec coordinates of a d x d block: d(d+1)/2 over the real
    symmetric matrices, d^2 over the Hermitian ones."""
    return d * (d + 1) // 2 if real else d * d


@cache
def _rvec_coords(d: int, real: bool) -> np.ndarray:
    """The read-only (3, k) table of a d x d block's rvec coordinates, in
    rvec order: column k holds the entry (i, j), i <= j, of coordinate k
    and its part (0 the real part, 1 the imaginary one).  The diagonal
    (i, i, 0) comes first, then the upper entries' real parts (i, j, 0)
    and, over the Hermitian field, their imaginary parts (i, j, 1), each
    run in ``np.triu_indices`` order."""
    iu = np.triu_indices(d, k=1)
    ends = [np.concatenate([np.arange(d)] + [side] * (1 if real else 2)) for side in iu]
    coords = np.stack(ends + [np.arange(rvec_size(d, real)) >= d + len(iu[0])])
    coords.flags.writeable = False
    return coords


@cache
def _rvec_basis(d: int, real: bool) -> tuple[np.ndarray, np.ndarray]:
    """The cached, read-only pair (B, reader) of dimension d and field.

    Hermitian: B is (d^2, d^2) complex: its row k is the basis matrix E_k
    of ``_rvec_coords``'s coordinate k, flattened: e_i e_i^T on the
    diagonal, (e_i e_j^T + e_j e_i^T) / sqrt2 for a real part and
    i (e_i e_j^T - e_j e_i^T) / sqrt2 for an imaginary one; ``rvec_to_herm``
    multiplies by B viewed as (d^2, 2 d^2) reals.  ``reader`` (2 d^2, d^2)
    takes a flattened matrix, viewed as interleaved real and imaginary
    parts, to its rvec.  It reads the diagonal's real parts and sqrt2 times
    the upper triangle's real and imaginary parts, so on a Hermitian M it
    is Re(M.flat @ B^H); a matrix that is Hermitian only up to rounding
    gets the same bits as from an entrywise read of its upper triangle.

    Real: the same basis without its imaginary rows, B (d(d+1)/2, d^2) and
    ``reader`` (d^2, d(d+1)/2), both real, over flattened real matrices:
    the diagonal and sqrt2 times the upper triangle.
    """
    i, j, part = _rvec_coords(d, real)
    k, upper, lower = np.arange(len(i)), i * d + j, j * d + i
    diag, re, im = i == j, (i != j) & (part == 0), part == 1
    basis = np.zeros((len(k), d * d), dtype=complex)
    basis[k[diag], upper[diag]] = 1.0
    basis[k[re], upper[re]] = basis[k[re], lower[re]] = 1.0 / _SQRT2
    basis[k[im], upper[im]] = 1j / _SQRT2
    basis[k[im], lower[im]] = -1j / _SQRT2
    reader = np.zeros((d * d, 1 if real else 2, len(k)))
    reader[upper, part, k] = np.where(diag, 1.0, _SQRT2)
    pair = (basis.real.copy() if real else basis, reader.reshape(-1, len(k)))
    for arr in pair:
        arr.flags.writeable = False
    return pair


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


# -- the program ----------------------------------------------------------------


@dataclass
class Ball:
    """The capped ball of one value: its sub-blocks that carry rho, one
    stack per group of one (r, d, field), s0 (``free_mass``; no w unless it
    is positive) and the fidelity c = sqrt(1 - eps^2).

    Group j holds ``eigs[j]`` (n, r), each sub-block's positive spectrum of
    rho_b (descending, the first r of its d directions), and ``sigma[j]``
    (n, d, d), its sigma_b in rho_b's eigenbasis, real or complex (the
    group's field), positive definite; r, d, the field and n are read off
    the arrays.  A sub-block's fidelity block G_b is posed on those first
    r directions, supp(rho_b), and on the first r of rho'_b's, and its cap
    and trace on all d.  The sub-blocks are ordered group by group, and a
    point's and a dual's stacks follow the same groups."""

    eigs: list[np.ndarray]
    sigma: list[np.ndarray]
    free_mass: float
    fidelity: float


def _groups(ball: Ball) -> tuple[tuple[int, int, bool, int], ...]:
    """(r, d, real, n) of each group of ``ball``, read off its stacks."""
    return tuple(
        (eigs.shape[1], sigma.shape[-1], not np.iscomplexobj(sigma), len(sigma))
        for eigs, sigma in zip(ball.eigs, ball.sigma)
    )


@dataclass
class BallPoint:
    """A point of a ``Ball``: t, w (0 without one), and per group of the
    ball the stacks of its sub-blocks' Z_b (n, r, r) and rho'_b
    (n, d, d)."""

    t: float
    w: float
    z: list[np.ndarray]
    rho: list[np.ndarray]


@dataclass
class BallDual:
    """A slack-side vector of a ``Ball``: per group of the ball the stacks
    of W_b on G_b (n, 2r, 2r), of P_b on rho'_b >= 0 (n, d, d; None when
    r = d, where G_b holds all of rho'_b) and of V_b on C_b (n, d, d;
    1 x 1 when d = 1), and the weights of the fidelity row, of w >= 0 and of
    t s0 - w >= 0 (0 without w)."""

    g: list[np.ndarray]
    psd: list[np.ndarray | None]
    cap: list[np.ndarray]
    fid: float
    floor: float
    free_cap: float


@dataclass
class BallSolve:
    status: str  # "optimal" | "maxIterations" | "closedForm"
    iterations: int
    residuals: dict[str, float]
    point: BallPoint
    dual: BallDual  # the solve's z, read by ``lower_bound``


def _reals(r: int, d: int, real: bool) -> int:
    """The free reals of a sub-block of rank r and dimension d: its G_b's
    rvec off the r x r corner, and rho'_b's rvec off its leading r x r
    block."""
    return rvec_size(2 * r, real) + rvec_size(d, real) - 2 * rvec_size(r, real)


# -- certificates -------------------------------------------------------------


def _logged(t: float) -> float:
    """2^(log2 t) of a finite positive t, the t a value log2 t reads back;
    a solve hands its point back at this t, so the point's recheck is the
    one its certificate reads.  Any other t is returned as it is."""
    return 2.0 ** math.log2(t) if math.isfinite(t) and t > 0.0 else t


def recheck(ball: Ball, point: BallPoint) -> dict[str, float]:
    """The residuals of ``point`` on ``ball``, evaluated again from its own
    (Z, rho', t, w): "primal" the largest violation of the PSD blocks G_b,
    rho'_b (when r < d) and C_b (one ``eigvalsh`` per block size) and of
    the scalar rows, "gap" the trace row's |sum_b Tr rho'_b + w - 1|."""
    mats: dict[int, list[np.ndarray]] = {}
    rows, fid, mass = [np.zeros(1)], 0.0, 0.0
    for eigs, sigma, z, rho in zip(ball.eigs, ball.sigma, point.z, point.rho):
        r, d = eigs.shape[1], sigma.shape[-1]
        g = np.zeros((len(z), 2 * r, 2 * r), dtype=np.result_type(z, rho))
        g[:, np.arange(r), np.arange(r)] = eigs
        g[:, :r, r:], g[:, r:, :r], g[:, r:, r:] = z, _ct(z), rho[:, :r, :r]
        mats.setdefault(2 * r, []).append(g)
        if r < d:
            mats.setdefault(d, []).append(rho)
        cap = point.t * sigma - rho
        if d == 1:
            rows.append(cap[:, 0, 0].real)
        else:
            mats.setdefault(d, []).append(cap)
        fid += float(z[:, np.arange(r), np.arange(r)].real.sum())
        mass += float(rho[:, np.arange(d), np.arange(d)].real.sum())
    rows.append([fid - ball.fidelity])
    if ball.free_mass > 0.0:
        rows.append([point.w, point.t * ball.free_mass - point.w])
        mass += point.w
    least = float(np.min(np.concatenate(rows)))
    for group in mats.values():
        stack = np.concatenate(group)
        least = min(least, float(np.linalg.eigvalsh((stack + _ct(stack)) / 2)[:, 0].min()))
    return {"primal": max(-least, 0.0), "gap": abs(mass - 1.0)}


def lower_bound(ball: Ball, dual: BallDual) -> float:
    """The least t that ``dual`` allows on ``ball``: t_low =
    (gap - X |r|) / held, or 0 when held or the numerator is not positive.
    It is homogeneous in the dual.

    Weak duality with t left free.  For every feasible point (x, t),
    0 <= <dual, A x + h> = <r, x> + t held - gap, x the free reals but t.
    Per sub-block the residual over its free reals is
    R_b = W_b + (f / 2) F_Z, read off G_b's corner, with F_Z the fidelity
    row's matrix (1 at (a, r + a) and (r + a, a), a < r), and on rho'_b
    the trailing r x r block of W_b in its leading corner, plus P_b when
    r < d, plus nu I - V_b:
    |R_b|^2 counts the rho'_b part and twice Z_b's block, as
    their rvec coordinates do.  w's residual is floor - free_cap + nu.  nu
    is the trace row's least-squares multiplier, minus the mean of the
    residuals on the trace row's reals.  t's coefficient is
    held = sum_b Re Tr[V_b sigma_b] + free_cap s0 and the constant is
    gap = c f - sum_b sum_a Lambda_a W_b[a, a] + nu.  So
    t held >= gap - |r| |x|, and X = sqrt(1 + 2 sum_b Tr Lambda_b) bounds
    |x| on every feasible point: |rho'|_F^2 + w^2 <= (Tr rho' + w)^2 = 1,
    and G_b PSD gives |Z_b|_F^2 <= Tr Lambda_b Tr rho'_b,rr <=
    Tr Lambda_b Tr rho'_b, counted twice by Z_b's rvec coordinates.  The
    least t of the program is at least t_low (Jansson, Chaykin and Keil,
    SIAM J. Numer. Anal. 46, 2007).

    The dual is read as it is given.  The three scalar weights f, floor
    and free_cap are clipped at 0, which makes them cone elements exactly.
    The blocks are not projected: with m_b^- at or above the negative part
    of a block's least eigenvalue (``_deficit``), <M_b, S_b> >=
    -m_b^- Tr S_b for every PSD S_b.  For W_b, Tr G_b = Tr Lambda_b +
    Tr rho'_b,rr, and P_b reads Tr rho'_b, with Tr rho'_b,rr <= Tr rho'_b
    and sum_b Tr rho'_b <= 1, so
    sum_b m_b^- Tr Lambda_b + max_b (m_b^- + p_b^-) is taken off gap; for
    V_b, Tr C_b <= t Tr sigma_b, so sum_b m_b^- Tr sigma_b is added to
    held.

    The float arithmetic is bounded too, with u = 2^-53: a float sum of
    m products is within gamma_m = m u / (1 - m u) times the sum of its
    terms' absolute values of the exact one (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 3.1).  gap and held are
    sums of terms of size about 1 that cancel to about t held, so that
    bound is taken off gap and added to held, each entry of
    Re Tr[V_b sigma_b] counting two products, bounded by |V_b| |sigma_b|;
    four more terms in gap's count and two in held's cover the scalar
    steps after them.  Each charge sums nonnegative products, so it is
    scaled by 1 + gamma of their count, and is one more term of gap or
    held.  Each entry of r takes at most two roundings, and three on
    rho'_b of a sub-block with r < d, whose leading r x r block sums four
    terms (W_b's trailing block, P_b, -V_b and nu); so gamma_2 times the
    norm of its terms' absolute values (``spread``) is added to |r|, and
    gamma_3 times it on those sub-blocks; |r| and X are sums of nonnegative
    terms under a sqrt, each scaled by 1 + gamma_(count + 8), and so is
    their product; the quotient is scaled by 1 - 2u.
    """
    free = ball.free_mass > 0.0
    fid, floor, free_cap = (max(v, 0.0) for v in (dual.fid, dual.floor, dual.free_cap))
    parts = list(zip(ball.eigs, ball.sigma, dual.g, dual.psd, dual.cap))
    tails = [_tail(eigs.shape[1], g, p, cap) for eigs, _, g, p, cap in parts]
    total = sum(float(np.trace(tail, axis1=1, axis2=2).real.sum()) for tail in tails)
    count = sum(sigma.shape[0] * sigma.shape[-1] for sigma in ball.sigma) + free
    trace = -(total + (floor - free_cap) * free) / count
    resid, spread, spread_p, held = 0.0, 0.0, 0.0, free_cap * ball.free_mass * free
    short_g, short_c, most, reads = 0.0, 0.0, 0.0, 0
    gap = ball.fidelity * fid + trace
    # (number of products, sum of their absolute values) of gap and held
    gap_terms, held_terms = [6, abs(ball.fidelity * fid) + abs(trace)], [4, abs(held)]
    count = free + sum(eigs.size for eigs in ball.eigs)
    for (eigs, sigma, g, p, cap), tail in zip(parts, tails):
        r, d = eigs.shape[1], sigma.shape[-1]
        off = g[:, :r, r:].copy()
        off[:, np.arange(r), np.arange(r)] += fid / 2
        tail[:, np.arange(d), np.arange(d)] += trace
        resid += float(np.sum(np.abs(tail) ** 2)) + 2.0 * float(np.sum(np.abs(off) ** 2))
        terms = _tail(r, np.abs(g), None if p is None else np.abs(p), -np.abs(cap))
        terms[:, np.arange(d), np.arange(d)] += abs(trace)
        if p is None:
            spread += float(np.sum(terms**2))
        else:
            spread_p += float(np.sum(terms**2))
        spread += 2.0 * float(np.sum((np.abs(g[:, :r, r:]) + fid / 2) ** 2))
        count += tail.size + off.size
        held += float(np.sum(np.conj(cap) * sigma).real)
        held_terms[0] += 2 * sigma.size
        held_terms[1] += float(np.sum(np.abs(cap) * np.abs(sigma)))
        products = eigs * g[:, np.arange(r), np.arange(r)].real
        gap -= float(np.sum(products))
        gap_terms[0] += products.size
        gap_terms[1] += float(np.sum(np.abs(products)))
        # the blocks' negative parts, charged against their primal traces
        deficit = _deficit(g)
        short_g += float(deficit @ eigs.sum(axis=1))
        if p is not None:
            deficit = deficit + _deficit(p)
        most = max(most, float(deficit.max()))
        short_c += float(_deficit(cap) @ np.trace(sigma, axis1=1, axis2=2).real)
        reads += eigs.size + sigma.shape[0] * d
    grow = 1.0 + _gamma(reads + 1)
    charge_g, charge_c = (short_g + most) * grow, short_c * grow
    gap -= charge_g
    held += charge_c
    if free:
        resid += (floor - free_cap + trace) ** 2
        spread += (floor + free_cap + abs(trace)) ** 2
    gap -= _gamma(gap_terms[0] + 1) * (gap_terms[1] + charge_g)
    held += _gamma(held_terms[0] + 1) * (held_terms[1] + charge_c)
    margin = 1.0 + _gamma(count + 8)
    norm = math.sqrt(1.0 + 2.0 * sum(float(eigs.sum()) for eigs in ball.eigs)) * margin
    rounding = _gamma(2) * math.sqrt(spread) + _gamma(3) * math.sqrt(spread_p)
    size = (math.sqrt(resid) + rounding) * margin
    low = gap - norm * size * margin
    return low / held * (1.0 - 2.0**-52) if held > 0.0 and low > 0.0 else 0.0


def _tail(r: int, g: np.ndarray, p: np.ndarray | None, cap: np.ndarray) -> np.ndarray:
    """W_b's trailing r x r block in the leading corner of rho'_b's d x d,
    plus P_b (None when r = d), less V_b, per sub-block of a stack: a
    dual's residual on rho'_b before the trace row's multiplier."""
    if p is None:
        return g[:, r:, r:] - cap
    tail = p - cap
    tail[:, :r, :r] += g[:, r:, r:]
    return tail


def _gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u), u = 2^-53: the relative bound on the
    round-off of a float sum of m products."""
    mu = m * 2.0**-53
    return mu / (1.0 - mu)


def _deficit(blocks: np.ndarray) -> np.ndarray:
    """Per block M of a stack, a float at or above the negative part
    max(-lambda_min(M), 0) of its least eigenvalue: ``eigvalsh``'s least,
    less a bound on its error.  LAPACK's Hermitian eigensolvers are
    backward stable, each computed eigenvalue within p(d) u |M|_2 of an
    exact one, p a modest function of the size d, which LAPACK's own error
    estimate takes as 1 (LAPACK Users' Guide, 3rd ed., 1999, sec. 4.7);
    gamma_(d^2) |M|_F >= d^2 u |M|_2 is taken for it, which also covers
    the rounding of the norm and of the difference."""
    size = blocks.shape[-1]
    least = np.linalg.eigvalsh(blocks)[:, 0]
    norm = np.sqrt(np.sum(np.abs(blocks) ** 2, axis=(1, 2)))
    return np.maximum(_gamma(size * size) * norm - least, 0.0)


def within_tolerance(residuals: dict[str, float]) -> bool:
    """Whether the "primal" and "gap" residuals of ``recheck`` are both at
    most ``FEASIBLE_TOL``."""
    return residuals["primal"] <= FEASIBLE_TOL and residuals["gap"] <= FEASIBLE_TOL


# -- layout of a batch -----------------------------------------------------------


def _rvec_positions(n: int, real: bool) -> dict[tuple[int, int, int], int]:
    """The rvec position of each coordinate (i, j, part) of an n x n block:
    ``_rvec_coords`` enumerated."""
    return {coord: p for p, coord in enumerate(zip(*_rvec_coords(n, real).tolist()))}


@cache
def _geometry(r: int, d: int, real: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a sub-block's free reals sit.  The first are the rvec
    coordinates of its 2r square G_b off the r x r corner (their
    positions in G_b's rvec, ascending), the rest rho'_b's rvec
    coordinates off its leading r x r block, in rho'_b's rvec order (none
    when r = d).  Returns
    those positions, and among the free reals the index of each rvec
    coordinate of rho'_b (in its own rvec order) and of Re Z_b[a, a] for
    a < r."""
    pos = _rvec_positions(2 * r, real)
    free = np.flatnonzero(_rvec_coords(2 * r, real)[1] >= r)
    index = {p: k for k, p in enumerate(free.tolist())}
    rho, rest = [], len(free)
    for i, j, part in zip(*_rvec_coords(d, real).tolist()):
        if j < r:  # i <= j: the entry sits in G_b's trailing block
            rho.append(index[pos[r + i, r + j, part]])
        else:
            rho.append(rest)
            rest += 1
    zdiag = [index[pos[a, r + a, 0]] for a in range(r)]
    return free, np.array(rho), np.array(zdiag, dtype=int)


def _blocks(r: int, d: int) -> tuple[tuple[str, int], ...]:
    """(kind, size) of a sub-block's PSD blocks, in the order a slab holds
    them: G_b ("g", 2r), rho'_b >= 0 ("p", d) when r < d and the cap C_b
    ("c", d) when d > 1 (a scalar row when d = 1)."""
    return (("g", 2 * r),) + (("p", d),) * (r < d) + (("c", d),) * (d > 1)


# built once per shapes: a pass asks for the same few again and again
@lru_cache(maxsize=256)
class _Layout:
    """Where the blocks, scalar slots and free reals of several values sit
    in the joined vectors of a batch; it depends on the values' shapes
    alone (per group (r, d, real, n), and whether there is a w).

    Slack: one slab per (size, field), sorted, holding the blocks of that
    size of every value (``_blocks``: G_b, rho'_b when r < d, C_b when
    d > 1), value by value, group by group and in that order within a
    group, each as its rvec; then each value's scalar slots: the fidelity
    row, the caps of its 1 x 1 sub-blocks, w >= 0 and t s0 - w >= 0.  Free
    reals: value by value, each sub-block's in group order, then t, then
    w.  A is in coordinate form (``rows``, ``cols``, ``coef``), entries
    slab by slab, then slot by slot, so that ``np.bincount`` adds every
    slot's and every real's terms in the same order in any batch;
    ``sigma_at``, ``cap_at`` and ``mass_at`` are the entries that take
    sigma_b's rvec, a 1 x 1 sigma_b and s0.  ``group_x`` and ``slot_of``
    give, per value and group, each sub-block's first free real and, per
    kind "g", "p" and "c", the first slot of its G_b, rho'_b and C_b
    (None for a block it lacks).  The Schur matrices (n_v + 1
    square, bordered by the trace row) lie end to end, grouped by size.
    Each Schur term joins two A entries of one block or slot (``first``,
    ``second``), weighted by an entry of the joined T^T T or by its slot's
    z / s (``weight_at``), and adds to one position (``h_at``).
    """

    def __init__(self, shapes: tuple):
        self.n_vals = len(shapes)
        x_lo, n_x, self.group_x = [], 0, []
        for groups, free in shapes:
            x_lo.append(n_x)
            starts = []
            for r, d, real, n in groups:
                width = _reals(r, d, real)
                starts.append(n_x + width * np.arange(n))
                n_x += width * n
            self.group_x.append(starts)
            n_x += 1 + free
        self.x_lo, self.n_x = np.array(x_lo + [n_x]), n_x
        self.t_at = self.x_lo[1:] - 1 - np.array([free for _, free in shapes], dtype=int)
        self.x_val = np.repeat(np.arange(self.n_vals), np.diff(self.x_lo))

        rows, cols, coef, slot_val = [], [], [], []
        sigma_at, cap_at, mass_at, corner, trace = [], [], [], [], []
        # per run of blocks or slots of one value: (their A entries, one row
        # each; their local slots; their T^T T offsets, or their slots; k; value)
        terms = []
        self.slabs = []  # (size, real, slots, count, k, runs (value, group, kind))
        self.slot_of = {
            kind: [[None] * len(groups) for groups, _ in shapes] for kind in ("g", "p", "c")
        }
        slot = entry = k_lo = 0
        keys = {
            (size, real)
            for groups, _ in shapes
            for r, d, real, _ in groups
            for _, size in _blocks(r, d)
        }
        for size, real in sorted(keys):
            k = rvec_size(size, real)
            runs = [
                (v, g, kind)
                for v, (groups, _) in enumerate(shapes)
                for g, (r, d, group_real, _) in enumerate(groups)
                if group_real == real
                for kind, at in _blocks(r, d)
                if at == size
            ]
            count = 0
            for v, g, kind in runs:
                r, d, _, n = shapes[v][0][g]
                free_pos, rho, _ = _geometry(r, d, real)
                members = count + np.arange(n)
                base, x_at = slot + members * k, self.group_x[v][g][:, None]
                self.slot_of[kind][v][g] = base
                kd = len(rho)
                if kind == "g":
                    local, at = free_pos, base[:, None] + free_pos
                    corner.append((base[:, None] + np.arange(r)).ravel())
                    cols.append((x_at + np.arange(len(free_pos))).ravel())
                    coef.append(np.ones(at.size))
                elif kind == "p":
                    local, at = np.arange(kd), base[:, None] + np.arange(kd)
                    cols.append((x_at + rho).ravel())
                    coef.append(np.ones(at.size))
                else:
                    local, at = np.tile(np.arange(kd), 2), np.tile(base[:, None] + np.arange(kd), 2)
                    cols.append(np.hstack([x_at + rho, np.full((n, kd), self.t_at[v])]).ravel())
                    coef.append(np.tile(np.repeat([-1.0, 0.0], kd), n))
                mine = entry + np.arange(at.size).reshape(at.shape)
                if kind == "c":
                    sigma_at.append(mine[:, kd:].ravel())
                rows.append(at.ravel())
                entry += at.size
                terms.append((mine, local, k_lo + members * k * k, k, v))
                slot_val.append(np.full(n * k, v))
                count += n
            self.slabs.append((size, real, slice(slot, slot + count * k), count, k, runs))
            slot += count * k
            k_lo += count * k * k
        self.n_psd = slot
        fid_at = []
        for v, (groups, free) in enumerate(shapes):
            t, w = self.t_at[v], self.t_at[v] + 1
            fid_at.append(slot)
            geometry = [_geometry(r, d, real) for r, d, real, _ in groups]
            x_at = [x[:, None] for x in self.group_x[v]]
            z_cols = np.concatenate([(x + zdiag).ravel() for x, (*_, zdiag) in zip(x_at, geometry)])
            # runs of scalar slots: their columns and coefficients, one row per slot
            scalars = [(z_cols[None], np.full((1, len(z_cols)), 1.0 / _SQRT2))]
            for g, ((_, d, _, n), x, (_, rho, _)) in enumerate(zip(groups, x_at, geometry)):
                trace.append((x + rho[:d]).ravel())
                if d == 1:
                    self.slot_of["c"][v][g] = slot + sum(len(c) for c, _ in scalars) + np.arange(n)
                    cap_at.append(entry + sum(c.size for c, _ in scalars) + 2 * np.arange(n) + 1)
                    caps = np.hstack([x + rho[0], np.full((n, 1), t)])
                    scalars.append((caps, np.tile([-1.0, 0.0], (n, 1))))
            if free:
                trace.append(np.array([w]))
                scalars.append((np.array([[w]]), np.ones((1, 1))))
                mass_at.append(np.array([entry + sum(c.size for c, _ in scalars)]))
                scalars.append((np.array([[t, w]]), np.array([[0.0, -1.0]])))
            for c, f in scalars:
                n = len(c)
                mine = entry + np.arange(c.size).reshape(c.shape)
                rows.append(np.repeat(slot + np.arange(n), c.shape[1]))
                cols.append(c.ravel())
                coef.append(f.ravel())
                terms.append((mine, None, slot + np.arange(n), None, v))
                slot_val.append(np.full(n, v))
                entry += c.size
                slot += n
        self.n_slots = slot
        self.rows, self.cols, self.coef = map(np.concatenate, (rows, cols, coef))
        self.sigma_at, self.cap_at, self.mass_at = (
            np.concatenate(at) if at else np.zeros(0, dtype=int) for at in (sigma_at, cap_at, mass_at)
        )
        self.corner, self.fid_at = np.concatenate(corner), np.array(fid_at)
        trace = np.concatenate(trace)
        self.etr = np.zeros(self.n_x)
        self.etr[trace] = 1.0
        self.slot_val = np.concatenate(slot_val)
        self.slots_of = [np.flatnonzero(self.slot_val == v) for v in range(self.n_vals)]
        self.scalar_starts = np.searchsorted(self.slot_val[self.n_psd :], np.arange(self.n_vals))

        # per slab: each slot's eigenvalue pair (i, j) as flat indices into
        # the slab's (members, size) eigenvalues (i = j on a diagonal slot),
        # and where each value's run of members starts; e, the identity
        self.e = np.zeros(self.n_slots)
        self.e[self.n_psd :] = 1.0
        self.slab_info = []
        t_rows, t_cols = [], []
        for size, real, at, count, k, runs in self.slabs:
            ends = _rvec_coords(size, real)[:2]
            pair = np.swapaxes(np.arange(count)[:, None, None] * size + ends[None], 0, 1)
            pair = pair.reshape(2, -1)
            vals = np.repeat([v for v, _, _ in runs], [shapes[v][0][g][3] for v, g, _ in runs])
            starts = np.flatnonzero(np.diff(vals, prepend=-1))
            diag = pair[0] == pair[1]
            self.slab_info.append((size, real, at, count, k, pair, diag, vals[starts], starts))
            self.e[at] = np.tile(np.arange(k) < size, count)
            # T in coordinate form: each member's k x k block
            grid = at.start + np.arange(count)[:, None, None] * k
            t_rows.append(np.broadcast_to(grid + np.arange(k)[:, None], (count, k, k)).ravel())
            t_cols.append(np.broadcast_to(grid + np.arange(k), (count, k, k)).ravel())
        scalar_slots = np.arange(self.n_psd, self.n_slots)
        self.t_rows = np.concatenate(t_rows + [scalar_slots])
        self.t_cols = np.concatenate(t_cols + [scalar_slots])
        self.degree = np.bincount(self.slot_val, self.e, minlength=self.n_vals)

        # Schur matrices: value v's is (n_v + 1) square, the last row and
        # column its trace row; matrices of one size lie together
        width = np.diff(self.x_lo) + 1
        sizes: dict[int, list[int]] = {}
        for v, size in enumerate(width.tolist()):
            sizes.setdefault(size, []).append(v)
        h_lo, self.solves, at = np.zeros(self.n_vals, dtype=int), [], 0
        for size, vals in sizes.items():
            # the right-hand sides and solutions of this size's systems, as
            # indices into (x reals, then one trace row per value)
            own = [list(range(self.x_lo[v], self.x_lo[v + 1])) + [self.n_x + v] for v in vals]
            self.solves.append((np.array(own), at, size))
            h_lo[vals] = at + size * size * np.arange(len(vals))
            at += size * size * len(vals)
        self.h_size = at
        local = self.cols - self.x_lo[self.x_val[self.cols]]

        def h_at(v, a, b):
            return h_lo[v] + a * width[v] + b

        first, second, weight_at, h_pos = [], [], [], []
        for mine, pos, at, k, v in terms:
            n = mine.shape[1]
            first.append(np.repeat(mine, n, axis=1).ravel())
            second.append(np.tile(mine, n).ravel())
            if pos is None:  # scalar slots: their z / s, after every T^T T entry
                weight_at.append(np.repeat(k_lo + at - self.n_psd, n * n))
            else:
                weight_at.append((at[:, None] + (pos[:, None] * k + pos[None, :]).ravel()).ravel())
            ends = local[mine]
            h_pos.append(h_at(v, ends[:, :, None], ends[:, None, :]).ravel())
        self.first, self.second = np.concatenate(first), np.concatenate(second)
        self.weight_at, self.h_at = np.concatenate(weight_at), np.concatenate(h_pos)
        tv = self.x_val[trace]
        end, at = width[tv] - 1, trace - self.x_lo[tv]
        self.border = np.concatenate([h_at(tv, at, end), h_at(tv, end, at)])


@dataclass
class _State:
    x: np.ndarray  # free reals, joined
    y: np.ndarray  # the trace row's multiplier, per value
    s: np.ndarray  # slack, joined
    z: np.ndarray  # dual, joined


class _Batch:
    """The values still stepping: their ``_Layout`` and the data it takes
    (A's coefficients, h, q, and the coefficient products of the Schur
    pairs)."""

    def __init__(self, balls: list[Ball]):
        self.balls = balls
        lay = self.lay = _Layout(tuple((_groups(ball), ball.free_mass > 0.0) for ball in balls))
        coef = lay.coef.copy()
        sigmas, eigs = [np.zeros(0)], [np.zeros(0)]
        for _, real, *_, runs in lay.slabs:
            for v, g, kind in runs:
                if kind == "g":
                    eigs.append(balls[v].eigs[g].ravel())
                elif kind == "c":
                    sigmas.append(herm_to_rvec(balls[v].sigma[g], real).ravel())
        caps = [sigma[:, 0, 0].real for ball in balls for sigma in ball.sigma if sigma.shape[-1] == 1]
        coef[lay.sigma_at] = np.concatenate(sigmas)
        coef[lay.cap_at] = np.concatenate([np.zeros(0)] + caps)
        coef[lay.mass_at] = [ball.free_mass for ball in balls if ball.free_mass > 0.0]
        self.coef = coef
        self.h = np.zeros(lay.n_slots)
        self.h[lay.corner] = np.concatenate(eigs)
        self.h[lay.fid_at] = [-ball.fidelity for ball in balls]
        self.q = np.zeros(lay.n_x)
        self.q[lay.t_at] = 1.0
        self.pair_coef = coef[lay.first] * coef[lay.second]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x over the joined slots."""
        lay = self.lay
        return np.bincount(lay.rows, self.coef * x[lay.cols], minlength=lay.n_slots)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """A^T y over the joined free reals."""
        lay = self.lay
        return np.bincount(lay.cols, self.coef * y[lay.rows], minlength=lay.n_x)

    def per_value(self, slots: np.ndarray) -> np.ndarray:
        """Each value's sum of a vector over its slots."""
        return np.bincount(self.lay.slot_val, slots, minlength=self.lay.n_vals)

    def start(self) -> _State:
        """SDPT3's infeasible start, per value."""
        lay = self.lay
        col = np.sqrt(np.bincount(lay.cols, self.coef**2, minlength=lay.n_x))
        ratio, widest = np.zeros(lay.n_vals), np.zeros(lay.n_vals)
        np.maximum.at(ratio, lay.x_val, (1.0 + np.abs(self.q)) / (1.0 + col))
        np.maximum.at(widest, lay.x_val, col)
        root = np.sqrt(lay.degree)
        xi = np.maximum(np.maximum(10.0, root), lay.degree * ratio)
        eta = np.maximum(np.maximum(10.0, root), np.sqrt(self.per_value(self.h**2)))
        s, z = np.maximum(eta, widest)[lay.slot_val] * lay.e, xi[lay.slot_val] * lay.e
        return _State(np.zeros(lay.n_x), np.zeros(lay.n_vals), s, z)

    def residuals(self, st: _State) -> tuple:
        """r_p, r_d, r_e and each value's |r_d|, gap and t."""
        lay = self.lay
        r_p = self.apply(st.x) + self.h - st.s
        r_d = self.adjoint(st.z) + lay.etr * st.y[lay.x_val] - self.q
        r_e = np.bincount(lay.x_val, lay.etr * st.x, minlength=lay.n_vals) - 1.0
        dual = np.sqrt(np.bincount(lay.x_val, r_d * r_d, minlength=lay.n_vals))
        return r_p, r_d, r_e, dual, self.per_value(st.s * st.z), st.x[lay.t_at]

    def step(self, st: _State, r_p, r_d, r_e, gap) -> _State:
        """One predictor-corrector step of every value."""
        lay = self.lay
        psd, n_slots = lay.n_psd, lay.n_slots
        lam, mid, isq = np.empty(n_slots), np.empty(n_slots), np.empty(n_slots)
        scales, grams = [], []
        for n, real, at, count, k, pair, diag, _, _ in lay.slab_info:
            s_b, z_b = rvec_to_herm(np.stack([st.s[at], st.z[at]]).reshape(2, count, k), n, real)
            low = np.linalg.cholesky(s_b)
            left = _ct(low) @ z_b
            mu, vecs = np.linalg.eigh(left @ low)
            if not (mu > 0.0).all():
                raise np.linalg.LinAlgError("a block is not positive definite")
            eig = np.sqrt(mu)
            scale = _congruence((eig**-1.5)[..., None] * (_ct(vecs) @ left), real)
            scales.append(scale.ravel())
            grams.append((np.swapaxes(scale, -1, -2) @ scale).ravel())
            li, lj = eig.ravel()[pair]
            lam[at] = np.where(diag, li, 0.0)
            mid[at] = (li + lj) / 2
            isq[at] = np.where(diag, (1.0 / np.sqrt(li)) ** 2, 1.0 / np.sqrt(li * lj))
        ratio = st.z[psd:] / st.s[psd:]
        tails = np.sqrt(st.s[psd:] * st.z[psd:])
        lam[psd:] = mid[psd:] = tails
        isq[psd:] = 1.0 / np.sqrt(tails * tails)
        t_vals = np.concatenate(scales + [np.sqrt(ratio)])
        weights = np.concatenate(grams + [ratio])
        schur = np.bincount(lay.h_at, weights[lay.weight_at] * self.pair_coef, minlength=lay.h_size)
        schur[lay.border] = 1.0

        def scaled(vec):
            return np.bincount(lay.t_rows, t_vals * vec[lay.t_cols], minlength=n_slots)

        def scaled_adjoint(vec):
            return np.bincount(lay.t_cols, t_vals * vec[lay.t_rows], minlength=n_slots)

        t_rp = scaled(r_p)

        def newton(rhs):
            v = rhs / mid
            ext = np.concatenate([self.adjoint(scaled_adjoint(v - t_rp)) + r_d, -r_e])
            sol = np.empty_like(ext)
            for at, lo, size in lay.solves:
                mats = schur[lo : lo + len(at) * size * size].reshape(len(at), size, size)
                sol[at] = np.linalg.solve(mats, ext[at][..., None])[..., 0]
            dz = v - t_rp - scaled(self.apply(sol[: lay.n_x]))
            return sol[: lay.n_x], -sol[lay.n_x :], v - dz, dz

        def max_step(ds, dz):
            rel = np.stack([ds, dz]) * isq
            low = np.minimum(0.0, np.minimum.reduceat(rel[:, psd:].min(axis=0), lay.scalar_starts))
            for n, real, at, count, k, _, _, vals, starts in lay.slab_info:
                blocks = rvec_to_herm(rel[:, at].reshape(2, count, k), n, real)
                least = np.minimum.reduceat(np.linalg.eigvalsh(blocks)[..., 0].min(axis=0), starts)
                low[vals] = np.minimum(low[vals], least)
            out = np.full(lay.n_vals, math.inf)
            out[low < 0.0] = -1.0 / low[low < 0.0]
            return out

        _, _, ds_a, dz_a = newton(-lam * lam)
        alpha = np.minimum(1.0, max_step(ds_a, dz_a))[lay.slot_val]
        sigma = (self.per_value((lam + alpha * ds_a) * (lam + alpha * dz_a)) / gap) ** 3
        corr = ds_a * dz_a
        for n, real, at, count, k, *_ in lay.slab_info:
            a, b = rvec_to_herm(np.stack([ds_a[at], dz_a[at]]).reshape(2, count, k), n, real)
            corr[at] = herm_to_rvec((a @ b + b @ a) / 2, real).ravel()
        dx, dy, ds, dz = newton((sigma * gap / lay.degree)[lay.slot_val] * lay.e - lam * lam - corr)
        alpha = np.minimum(1.0, STEP_TO_BOUNDARY * max_step(ds, dz))
        a_slot = alpha[lay.slot_val]
        return _State(
            st.x + alpha[lay.x_val] * dx,
            st.y + alpha * dy,
            st.s + a_slot * (r_p + self.apply(dx)),
            st.z + a_slot * scaled_adjoint(dz),
        )

    def point(self, st: _State, v: int) -> BallPoint:
        """Value v's point: t (at 2^(log2 t), ``_logged``), w and per group
        its sub-blocks' Z_b, read off the G_b their free reals and Lambda_b
        make, and rho'_b, read off its own rvec."""
        lay, ball = self.lay, self.balls[v]
        z, rho = [], []
        for (r, d, real, n), eigs, x_at in zip(_groups(ball), ball.eigs, lay.group_x[v]):
            free, rho_at, _ = _geometry(r, d, real)
            full = np.zeros((n, rvec_size(2 * r, real)))
            full[:, :r] = eigs
            full[:, free] = st.x[x_at[:, None] + np.arange(len(free))]
            z.append(rvec_to_herm(full, 2 * r, real)[:, :r, r:])
            rho.append(rvec_to_herm(st.x[x_at[:, None] + rho_at], d, real))
        t = _logged(float(st.x[lay.t_at[v]]))
        w = float(st.x[lay.t_at[v] + 1]) if ball.free_mass > 0.0 else 0.0
        return BallPoint(t, w, z, rho)

    def dual(self, st: _State, v: int) -> BallDual:
        """Value v's dual z, per group."""
        lay, ball = self.lay, self.balls[v]

        def blocks(kind, g, size, real):
            at = lay.slot_of[kind][v][g]
            if at is None:
                return None
            return rvec_to_herm(st.z[at[:, None] + np.arange(rvec_size(size, real))], size, real)

        found = []
        for g, (r, d, real, _) in enumerate(_groups(ball)):
            sizes = dict(_blocks(r, d))  # a 1 x 1 cap is a scalar slot
            found.append([blocks(kind, g, sizes.get(kind, d), real) for kind in ("g", "p", "c")])
        fid = lay.fid_at[v]
        last = lay.slots_of[v][-2:] if ball.free_mass > 0.0 else None
        floor, free_cap = (float(st.z[i]) for i in last) if last is not None else (0.0, 0.0)
        return BallDual(*map(list, zip(*found)), float(st.z[fid]), floor, free_cap)

    def keep(self, st: _State, kept: list[int]) -> tuple[_Batch, _State]:
        """The batch of the values ``kept`` (indices into this one) and their
        state, each value's reals and slots in their own order."""
        new = _Batch([self.balls[v] for v in kept])
        old, lay = self.lay, new.lay
        x, s, z = np.empty(lay.n_x), np.empty(lay.n_slots), np.empty(lay.n_slots)
        for j, v in enumerate(kept):
            x[lay.x_lo[j] : lay.x_lo[j + 1]] = st.x[old.x_lo[v] : old.x_lo[v + 1]]
            s[lay.slots_of[j]] = st.s[old.slots_of[v]]
            z[lay.slots_of[j]] = st.z[old.slots_of[v]]
        return new, _State(x, st.y[kept], s, z)


def _fails(batch: _Batch, st: _State, v: int) -> bool:
    """Whether value v's step, alone, raises a ``LinAlgError``."""
    one, own = batch.keep(st, [v])
    r_p, r_d, r_e, _, gap, _ = one.residuals(own)
    try:
        one.step(own, r_p, r_d, r_e, gap)
    except np.linalg.LinAlgError:
        return True
    return False


def minimize_balls(balls: list[Ball]) -> list[BallSolve]:
    """The interior-point solve of each ball's min t program, all stepped
    together, each with the result of its lone solve (a batch of one), in
    order.  "optimal" needs a point that passes ``recheck``, whose
    residuals the result holds; ``dual`` is the last z, block by block.

    Raises ``ProblemTooLarge`` when a value has more than
    ``MAX_VAR_REALS`` free reals, before anything is built."""
    for ball in balls:
        reals = sum(n * _reals(r, d, real) for r, d, real, n in _groups(ball))
        reals += 1 + (ball.free_mass > 0.0)
        if reals > MAX_VAR_REALS:
            raise ProblemTooLarge(
                f"problem too large for the dense Schur solve: {reals} var reals"
                f" > MAX_VAR_REALS = {MAX_VAR_REALS}"
            )
    results: list = [None] * len(balls)
    if not balls:
        return results
    active = list(range(len(balls)))
    batch = _Batch(balls)
    st = batch.start()
    gap_start = batch.per_value(st.s * st.z)
    it = 0
    while active:
        r_p, r_d, r_e, dual, gap, obj = batch.residuals(st)
        own = [
            {"dual": float(a), "duality_gap": float(b), "objective": float(c)}
            for a, b, c in zip(dual, gap, obj)
        ]
        stopped = {}
        for j, i in enumerate(active):
            res, point = own[j], None
            if max(dual[j], gap[j]) <= GAP_TOL * max(1.0, abs(obj[j])):
                point = batch.point(st, j)
                res.update(recheck(balls[i], point))
                if within_tolerance(res):
                    stopped[j] = ("optimal", res, point)
                    continue
            if it == IPM_MAX_ITER or gap[j] > gap_start[j] / GAP_TOL:
                stopped[j] = ("maxIterations", res, point)
        if not stopped:
            try:
                st = batch.step(st, r_p, r_d, r_e, gap)
                it += 1
                continue
            except np.linalg.LinAlgError:
                failed = [j for j in range(len(active)) if _fails(batch, st, j)]
                for j in failed or range(len(active)):
                    stopped[j] = ("maxIterations", own[j], None)
        for j, (status, res, point) in stopped.items():
            if point is None:
                point = batch.point(st, j)
            if "primal" not in res:
                res.update(recheck(batch.balls[j], point))
            results[active[j]] = BallSolve(status, it, res, point, batch.dual(st, j))
        kept = [j for j in range(len(active)) if j not in stopped]
        active = [active[j] for j in kept]
        if active:
            batch, st = batch.keep(st, kept)
            gap_start = gap_start[kept]
    return results
