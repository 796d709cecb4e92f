"""Dense complex Hermitian linear algebra used by every other module, and
the input contract every other module reads.

All operators are plain ``numpy`` arrays of dtype complex128.  Validation
helpers raise ``ValueError`` when an input violates the contract instead of
silently repairing it; tiny negative eigenvalues (within ``PSD_SLACK``)
are the one exception and get clamped to zero before square roots.
The ``*_many`` functions take a (..., d, d) stack and decompose all of its
members with one stacked LAPACK call; each member's result is the one its
single-matrix counterpart gives.  The eigenpair forms ``_root``,
``_pinv_root``, ``_support``, ``purify`` and ``uhlmann_partner`` take
checked eigenpairs (w, v), so one checked ``eigh`` (``density_eigh`` for a
density matrix) serves all of a matrix's functions.

The input contract.  Each slack is one constant, the value its check
applies:

- a Hermitian matrix: finite, with |M - M^dag| at most ``HERM_SLACK`` in
  every entry; its Hermitian part (M + M^dag) / 2 is what is kept;
- a PSD matrix: Hermitian, least eigenvalue at least -``PSD_SLACK``;
- a state (density matrix): PSD, trace 1 within ``TRACE_SLACK``;
- a POVM: PSD elements whose sum is I within ``COMPLETE_SLACK`` in
  Frobenius norm;
- a distribution: every probability at least -``NEG_PROB_SLACK`` (one in
  [-``NEG_PROB_SLACK``, 0) is held as 0), summing to 1 within
  ``SUM_SLACK``;
- a cq state: Hermitian PSD blocks whose traces sum to 1 within
  ``SUM_SLACK``.

``TRACE_SLACK`` and ``COMPLETE_SLACK`` are shares of ``SUM_SLACK``: the
distribution a POVM induces on a state sums to 1 within the state's trace
slack, plus the POVM's residual times the state's trace norm, plus the
round-off of the probabilities and of their sums, plus the probabilities
held as 0.  The shares, 0.6 and 0.1, leave 0.3 of ``SUM_SLACK`` to the
last two: about (2 D + 2 d_A^2 + 2 d_A + (d_A + 2) n) u for a state of
dimension D and n outcomes, and ``NEG_PROB_SLACK`` per outcome held as 0.
So up to D, d_A^2 and n d_A of about 10^4 and 20 outcomes held as 0, an
instance that loads also gives a distribution.

Two cut-offs are read everywhere a value is taken as 0: an eigenvalue
(or a matrix entry, or a singular value) at most ``SUPPORT_TOL`` is off
the support, and a probability or a block's trace at most ``ZERO_MASS``
is no mass.  ``REAL_TOL`` bounds the imaginary parts of a matrix taken as
real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_SLACK = 1e-8
PSD_SLACK = 1e-8
SUM_SLACK = 1e-10
TRACE_SLACK = 0.6 * SUM_SLACK
COMPLETE_SLACK = SUM_SLACK / 10
NEG_PROB_SLACK = 1e-12
# the support's absolute eigenvalue cut-off, and the no-mass cut-off: a
# mass within the negative-probability slack of 0 is 0 on either side
SUPPORT_TOL = 1e-12
ZERO_MASS = NEG_PROB_SLACK
# imaginary parts at most this are round-off of a real matrix
REAL_TOL = 1e-10


def as_matrix(op) -> np.ndarray:
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _as_stack(ops) -> np.ndarray:
    """``ops`` as a complex ``(..., d, d)`` stack of square matrices."""
    mats = np.asarray(ops, dtype=complex)
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {mats.shape}")
    return mats


def _hermitian_part(mats: np.ndarray) -> np.ndarray:
    """(M + M^dag) / 2 of a stack whose members are Hermitian within tolerance."""
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix has non-finite entries")
    adj = mats.conj().swapaxes(-1, -2)
    if np.max(np.abs(mats - adj), initial=0.0) > HERM_SLACK:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (mats + adj) / 2


def _check_psd(least_eig: float) -> None:
    if least_eig < -PSD_SLACK:
        raise ValueError(f"matrix has negative eigenvalue {least_eig:.3e}")


def assert_hermitian(op) -> np.ndarray:
    return _hermitian_part(as_matrix(op))


def assert_psd(op) -> np.ndarray:
    return assert_psd_many(as_matrix(op))


def assert_psd_many(ops) -> np.ndarray:
    """``assert_psd`` of every member of a (..., d, d) stack: one Hermitian
    test of the whole stack and one stacked ``eigvalsh``, whose least
    eigenvalue gets the check; returns the Hermitian parts."""
    mats = _hermitian_part(_as_stack(ops))
    if mats.size:
        _check_psd(float(np.linalg.eigvalsh(mats)[..., 0].min()))
    return mats


def assert_density(op) -> np.ndarray:
    return density_eigh(op)[0]


def density_eigh(op) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked density matrix and its eigenpairs, from one ``eigh``."""
    mat = assert_hermitian(op)
    w, v = np.linalg.eigh(mat)
    _check_psd(w[0])
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > TRACE_SLACK:
        raise ValueError(f"trace {tr} is not 1 within tolerance")
    return mat, w, v


@dataclass(frozen=True)
class SystemLayout:
    """Ordered tensor factors (label, dimension) of a composite space."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate factor labels")
        for _, d in self.factors:
            if d < 1:
                raise ValueError("factor dimensions must be >= 1")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims)) if self.factors else 1

    def index_of(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise ValueError(f"unknown factor label {label!r}")


def layout(*factors: tuple[str, int]) -> SystemLayout:
    return SystemLayout(tuple(factors))


def tensor(*ops) -> np.ndarray:
    """Kronecker product of one or more operators."""
    out = as_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_matrix(op))
    return out


def partial_trace(op, lay: SystemLayout, keep) -> np.ndarray:
    """Trace out all factors of ``lay`` not listed in ``keep``, of one
    operator or of every member of a (..., d, d) stack at once.

    ``keep`` preserves the original factor order regardless of how it is
    listed.  Trace and PSD-ness are preserved.
    """
    mats = _as_stack(op)
    if mats.shape[-1] != lay.dim:
        raise ValueError(f"operator dim {mats.shape[-1]} != layout dim {lay.dim}")
    keep = set(keep)
    for lab in keep:
        lay.index_of(lab)  # raises on unknown label
    n = len(lay.factors)
    keep_idx = [i for i, (lab, _) in enumerate(lay.factors) if lab in keep]
    lead = mats.shape[:-2]
    tens = mats.reshape(lead + lay.dims + lay.dims)
    row = list(range(n))
    col = [n + i if i in keep_idx else i for i in range(n)]
    out = [i for i in keep_idx] + [n + i for i in keep_idx]
    tens = np.einsum(tens, [..., *row, *col], [..., *out])
    kdim = int(np.prod([lay.dims[i] for i in keep_idx])) if keep_idx else 1
    return tens.reshape(lead + (kdim, kdim))


def trace_norm(op) -> float:
    return float(trace_norm_many(as_matrix(op)))


def trace_norm_many(ops) -> np.ndarray:
    """``trace_norm`` of every member of a ``(..., d, d)`` stack, from one
    stacked ``eigvalsh``."""
    mats = _hermitian_part(_as_stack(ops))
    return np.sum(np.abs(np.linalg.eigvalsh(mats)), axis=-1)


def matrix_sqrt_many(ops) -> np.ndarray:
    """PSD square root of a matrix or of every member of a ``(..., d, d)``
    stack, from one stacked ``eigh``; each member is symmetrised, an
    eigenvalue below -``PSD_SLACK`` is ``assert_psd``'s ValueError, and
    smaller negative ones are clamped."""
    w, v = np.linalg.eigh(_hermitian_part(_as_stack(ops)))
    if w.size:
        _check_psd(w[..., 0].min())
    return _root(w, v)


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The PSD square root V sqrt(max(W, 0)) V^dag of (stacked) eigenpairs."""
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _pinv_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The inverse square root on the support of a matrix's eigenpairs."""
    inv = np.where(w > SUPPORT_TOL, 1.0 / np.sqrt(np.clip(w, SUPPORT_TOL, None)), 0.0)
    return (v * inv) @ v.conj().T


def _support(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The projector onto the support of a matrix's eigenpairs."""
    cols = v[:, np.abs(w) > SUPPORT_TOL]
    return cols @ cols.conj().T


def purify(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Purification sum_i sqrt(w_i) |v_i> (x) |i> on system (x) mirror of
    the PSD matrix with checked eigenpairs (w, v), the mirror cut down to
    its rank (the eigenvalues above ``SUPPORT_TOL``)."""
    keep = w > SUPPORT_TOL
    if not keep.any():
        raise ValueError("cannot purify the zero operator")
    return (v[:, keep] * np.sqrt(w[keep])).reshape(-1)


def uhlmann_partner(psi, wt: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """Purification of the target whose checked eigenpairs are (wt, vt),
    maximizing overlap with ``psi``.

    ``psi`` purifies some state on the primary system (first factor); the
    mirror is everything after it.  The returned vector purifies the target
    in the same space, and its overlap with ``psi`` equals the Uhlmann
    fidelity of reduced(psi) and the target, chosen real nonnegative.  The
    eigenpairs give the rank, the root and the support.
    """
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    d = len(wt)
    if vec.size % d != 0:
        raise ValueError("psi length is not divisible by the target dimension")
    dm = vec.size // d
    rank = int(np.sum(wt > SUPPORT_TOL))
    if dm < rank:
        raise ValueError(f"purifying dimension {dm} smaller than target rank {rank}")
    root = _root(wt, vt)
    psi_mat = vec.reshape(d, dm)
    a = root @ psi_mat
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > SUPPORT_TOL
    u1 = u[:, keep]
    v1 = vh.conj().T[:, keep]
    # complete with support directions of target not yet covered
    supp = vt[:, wt > SUPPORT_TOL]
    rem = supp - u1 @ (u1.conj().T @ supp)
    qrem, rrem = np.linalg.qr(rem)
    extra_cols = [qrem[:, j] for j in range(qrem.shape[1]) if np.abs(rrem[j, j]) > SUPPORT_TOL]
    if extra_cols:
        u2 = np.stack(extra_cols, axis=1)
        # orthonormal right-vectors not used by v1
        comp = np.eye(dm, dtype=complex) - v1 @ v1.conj().T
        qc, rc = np.linalg.qr(comp)
        v2cols = [qc[:, j] for j in range(qc.shape[1]) if np.abs(rc[j, j]) > SUPPORT_TOL]
        if len(v2cols) < u2.shape[1]:
            raise ValueError("purifying dimension too small to complete the partner")
        v2 = np.stack(v2cols[: u2.shape[1]], axis=1)
        part_iso = u1 @ v1.conj().T + u2 @ v2.conj().T
    else:
        part_iso = u1 @ v1.conj().T
    phi_mat = root @ part_iso
    return phi_mat.reshape(-1)
