"""Dense complex Hermitian linear algebra used by every other module.

All operators are plain ``numpy`` arrays of dtype complex128.  Validation
helpers raise ``ValueError`` when an input violates the contract instead of
silently repairing it; tiny negative eigenvalues (below the PSD tolerance)
are the one exception and get clamped to zero before square roots.
The ``*_many`` functions take a (..., d, d) stack and decompose all of its
members with one stacked LAPACK call; each member's result is the one its
single-matrix counterpart gives.  The eigenpair forms ``_root``,
``_pinv_root``, ``_support``, ``purify`` and ``uhlmann_partner`` take
checked eigenpairs (w, v), so one checked ``eigh`` (``density_eigh`` for a
density matrix) serves all of a matrix's functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
PSD_TOL = 1e-10
# relative eigenvalue cutoff of the support (pseudo-inverse, projector)
SUPPORT_TOL = 1e-10
# a density matrix's trace and a distribution's sum are 1 within this
TRACE_TOL = 1e-10


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
    if np.max(np.abs(mats - adj), initial=0.0) > HERM_TOL * 100:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (mats + adj) / 2


def _check_psd(least_eig: float, tol: float = PSD_TOL * 100) -> None:
    if least_eig < -tol:
        raise ValueError(f"matrix has negative eigenvalue {least_eig:.3e}")


def assert_hermitian(op) -> np.ndarray:
    return _hermitian_part(as_matrix(op))


def assert_psd(op) -> np.ndarray:
    mat = assert_hermitian(op)
    _check_psd(np.linalg.eigvalsh(mat)[0])
    return mat


def assert_psd_many(ops, tol: float = PSD_TOL * 100) -> np.ndarray:
    """``assert_psd`` of every member of a (..., d, d) stack: one Hermitian
    test of the whole stack and one stacked ``eigvalsh``, whose least
    eigenvalue gets the check; returns the Hermitian parts."""
    mats = _hermitian_part(_as_stack(ops))
    if mats.size:
        _check_psd(float(np.linalg.eigvalsh(mats)[..., 0].min()), tol)
    return mats


def assert_density(op) -> np.ndarray:
    return density_eigh(op)[0]


def density_eigh(op) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked density matrix and its eigenpairs, from one ``eigh``."""
    mat = assert_hermitian(op)
    w, v = np.linalg.eigh(mat)
    _check_psd(w[0])
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > TRACE_TOL:
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
    eigenvalue below ``-PSD_TOL * 100`` is ``assert_psd``'s ValueError, and
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
    cutoff = max(SUPPORT_TOL, SUPPORT_TOL * max(w[-1], 0.0))
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (v * inv) @ v.conj().T


def _support(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The projector onto the support of a matrix's eigenpairs."""
    cutoff = max(SUPPORT_TOL, SUPPORT_TOL * max(abs(w[0]), abs(w[-1])))
    cols = v[:, np.abs(w) > cutoff]
    return cols @ cols.conj().T


def purify(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Purification sum_i sqrt(w_i) |v_i> (x) |i> on system (x) mirror of
    the PSD matrix with checked eigenpairs (w, v), the mirror cut down to
    its rank (the eigenvalues above 1e-12)."""
    keep = w > 1e-12
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
    rank = int(np.sum(wt > 1e-12))
    if dm < rank:
        raise ValueError(f"purifying dimension {dm} smaller than target rank {rank}")
    root = _root(wt, vt)
    psi_mat = vec.reshape(d, dm)
    a = root @ psi_mat
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > 1e-13
    u1 = u[:, keep]
    v1 = vh.conj().T[:, keep]
    # complete with support directions of target not yet covered
    supp = vt[:, wt > 1e-12]
    rem = supp - u1 @ (u1.conj().T @ supp)
    qrem, rrem = np.linalg.qr(rem)
    extra_cols = [qrem[:, j] for j in range(qrem.shape[1]) if np.abs(rrem[j, j]) > 1e-9]
    if extra_cols:
        u2 = np.stack(extra_cols, axis=1)
        # orthonormal right-vectors not used by v1
        comp = np.eye(dm, dtype=complex) - v1 @ v1.conj().T
        qc, rc = np.linalg.qr(comp)
        v2cols = [qc[:, j] for j in range(qc.shape[1]) if np.abs(rc[j, j]) > 1e-9]
        if len(v2cols) < u2.shape[1]:
            raise ValueError("purifying dimension too small to complete the partner")
        v2 = np.stack(v2cols[: u2.shape[1]], axis=1)
        part_iso = u1 @ v1.conj().T + u2 @ v2.conj().T
    else:
        part_iso = u1 @ v1.conj().T
    phi_mat = root @ part_iso
    return phi_mat.reshape(-1)
