"""Dense complex Hermitian linear algebra used by every other module.

All operators are plain ``numpy`` arrays of dtype complex128.  Validation
helpers raise ``ValueError`` when an input violates the contract instead of
silently repairing it; tiny negative eigenvalues (below the PSD tolerance)
are the one exception and get clamped to zero before square roots.
The ``*_many`` functions take a (..., d, d) stack and decompose all of its
members with one stacked LAPACK call; each member's result is the one its
single-matrix counterpart gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
PSD_TOL = 1e-10
SQRT_NEG_TOL = 1e-8
# relative eigenvalue cutoff of the support (pseudo-inverse, projector)
SUPPORT_TOL = 1e-10


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


def assert_psd(op, tol: float = PSD_TOL * 100) -> np.ndarray:
    mat = assert_hermitian(op)
    _check_psd(np.linalg.eigvalsh(mat)[0], tol)
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
    if abs(tr - 1.0) > 1e-8:
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


def _to_tensor_form(op: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    return op.reshape(dims + dims)


def partial_trace(op, lay: SystemLayout, keep) -> np.ndarray:
    """Trace out all factors of ``lay`` not listed in ``keep``.

    ``keep`` preserves the original factor order regardless of how it is
    listed.  Trace and PSD-ness are preserved.
    """
    mat = as_matrix(op)
    if mat.shape[0] != lay.dim:
        raise ValueError(f"operator dim {mat.shape[0]} != layout dim {lay.dim}")
    keep = set(keep)
    for lab in keep:
        lay.index_of(lab)  # raises on unknown label
    n = len(lay.factors)
    keep_idx = [i for i, (lab, _) in enumerate(lay.factors) if lab in keep]
    tens = _to_tensor_form(mat, lay.dims)
    row = list(range(n))
    col = [n + i if i in keep_idx else i for i in range(n)]
    out = [i for i in keep_idx] + [n + i for i in keep_idx]
    tens = np.einsum(tens, row + col, out)
    kdim = int(np.prod([lay.dims[i] for i in keep_idx])) if keep_idx else 1
    return tens.reshape(kdim, kdim)


def trace_norm(op) -> float:
    return float(trace_norm_many(as_matrix(op)))


def trace_norm_many(ops) -> np.ndarray:
    """``trace_norm`` of every member of a ``(..., d, d)`` stack, from one
    stacked ``eigvalsh``."""
    mats = _hermitian_part(_as_stack(ops))
    return np.sum(np.abs(np.linalg.eigvalsh(mats)), axis=-1)


def trace_norm_distance(a, b) -> float:
    """``||a - b||_1`` for Hermitian operators of equal dimension."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    return trace_norm(ma - mb)


def matrix_sqrt(op) -> np.ndarray:
    """PSD square root; an eigenvalue below ``-PSD_TOL * 100`` is
    ``assert_psd``'s ValueError, and smaller negative ones are clamped."""
    return matrix_sqrt_many(as_matrix(op))


def matrix_sqrt_many(ops) -> np.ndarray:
    """``matrix_sqrt`` of every member of a ``(..., d, d)`` stack, from one
    stacked ``eigh``; each member is symmetrised and checked as
    ``assert_psd`` does."""
    w, v = np.linalg.eigh(_hermitian_part(_as_stack(ops)))
    if w.size:
        _check_psd(w[..., 0].min())
    return _root(w, v)


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The PSD square root V sqrt(max(W, 0)) V^dag of (stacked) eigenpairs."""
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def pseudo_inverse_sqrt(op) -> np.ndarray:
    """Inverse square root on the support, zero on the kernel."""
    mat = assert_hermitian(op)
    w, v = np.linalg.eigh(mat)
    if w[0] < -SQRT_NEG_TOL:
        raise ValueError(f"pseudo_inverse_sqrt of non-PSD input (min eig {w[0]:.3e})")
    cutoff = max(SUPPORT_TOL, SUPPORT_TOL * max(w[-1], 0.0))
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (v * inv) @ v.conj().T


def support_projector(op) -> np.ndarray:
    mat = assert_hermitian(op)
    w, v = np.linalg.eigh(mat)
    cutoff = max(SUPPORT_TOL, SUPPORT_TOL * max(abs(w[0]), abs(w[-1])))
    cols = v[:, np.abs(w) > cutoff]
    return cols @ cols.conj().T


def purify(rho, truncate: bool = False, tol: float = 1e-12) -> np.ndarray:
    """Purification of ``rho`` on system (x) mirror.

    Default convention is row-major vectorization of ``matrix_sqrt(rho)``,
    so the mirror has the same dimension as the system.  With
    ``truncate=True`` the mirror is cut down to the rank of ``rho``
    (eigenvector purification), which keeps composite simulations small.
    """
    mat = assert_psd(rho)
    if truncate:
        w, v = np.linalg.eigh(mat)
        keepcols = w > tol
        w = np.clip(w[keepcols], 0.0, None)
        v = v[:, keepcols]
        r = max(1, v.shape[1])
        if v.shape[1] == 0:
            raise ValueError("cannot purify the zero operator")
        psi = np.zeros(mat.shape[0] * r, dtype=complex)
        for k in range(v.shape[1]):
            psi += np.sqrt(w[k]) * np.kron(v[:, k], _basis_vec(r, k))
        return psi
    return matrix_sqrt(mat).reshape(-1)


def _basis_vec(dim: int, k: int) -> np.ndarray:
    e = np.zeros(dim, dtype=complex)
    e[k] = 1.0
    return e


def uhlmann_partner(psi, target, eigh=None) -> np.ndarray:
    """Purification of ``target`` maximizing overlap with ``psi``.

    ``psi`` purifies some state on the primary system (first factor); the
    mirror is everything after it.  The returned vector purifies ``target``
    in the same space, and its overlap with ``psi`` equals the Uhlmann
    fidelity of reduced(psi) and ``target``, chosen real nonnegative.
    ``eigh``: the target's checked eigenpairs, when the caller has them.
    """
    # one decomposition gives the PSD check, the rank, the root and the support
    if eigh is None:
        eigh = np.linalg.eigh(assert_hermitian(target))
        _check_psd(eigh[0][0])
    wt, vt = eigh
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
