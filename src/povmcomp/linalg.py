"""Dense complex Hermitian linear algebra used by every other module.

All operators are plain ``numpy`` arrays of dtype complex128.  Validation
helpers raise ``ValueError`` when an input violates the contract instead of
silently repairing it; tiny negative eigenvalues (below the PSD tolerance)
are the one exception and get clamped to zero before square roots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10
PSD_TOL = 1e-10
SQRT_NEG_TOL = 1e-8


def as_matrix(op) -> np.ndarray:
    mat = np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def assert_hermitian(op, tol: float = HERM_TOL * 100) -> np.ndarray:
    mat = as_matrix(op)
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(mat - mat.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (mat + mat.conj().T) / 2


def assert_psd(op, tol: float = PSD_TOL * 100) -> np.ndarray:
    mat = assert_hermitian(op)
    w = np.linalg.eigvalsh(mat)
    if w[0] < -tol:
        raise ValueError(f"matrix has negative eigenvalue {w[0]:.3e}")
    return mat


def assert_density(op, tol: float = 1e-8) -> np.ndarray:
    mat = assert_psd(op)
    tr = float(np.trace(mat).real)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr} is not 1 within tolerance")
    return mat


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
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims)) if self.factors else 1

    def dim_of(self, label: str) -> int:
        return dict(self.factors)[label]

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
    mat = assert_hermitian(op)
    return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))


def trace_norm_distance(a, b) -> float:
    """``||a - b||_1`` for Hermitian operators of equal dimension."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    return trace_norm(ma - mb)


def matrix_sqrt(op) -> np.ndarray:
    """PSD square root; eigenvalues below ``-SQRT_NEG_TOL`` are an error."""
    mat = assert_hermitian(op)
    w, v = np.linalg.eigh(mat)
    if w[0] < -SQRT_NEG_TOL:
        raise ValueError(f"matrix_sqrt of non-PSD input (min eig {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def pseudo_inverse_sqrt(op, tol: float = 1e-10) -> np.ndarray:
    """Inverse square root on the support, zero on the kernel."""
    mat = assert_hermitian(op)
    w, v = np.linalg.eigh(mat)
    if w[0] < -SQRT_NEG_TOL:
        raise ValueError(f"pseudo_inverse_sqrt of non-PSD input (min eig {w[0]:.3e})")
    cutoff = max(tol, tol * max(w[-1], 0.0))
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.clip(w, cutoff, None)), 0.0)
    return (v * inv) @ v.conj().T


def support_projector(op, tol: float = 1e-10) -> np.ndarray:
    mat = assert_hermitian(op)
    w, v = np.linalg.eigh(mat)
    cutoff = max(tol, tol * max(abs(w[0]), abs(w[-1])))
    cols = v[:, np.abs(w) > cutoff]
    return cols @ cols.conj().T


def fidelity(a, b) -> float:
    """Uhlmann fidelity ``F = || sqrt(a) sqrt(b) ||_1`` in [0, 1]."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch")
    sa = matrix_sqrt(ma)
    sb = matrix_sqrt(mb)
    sv = np.linalg.svd(sa @ sb, compute_uv=False)
    return float(min(np.sum(sv), 1.0))


def purified_distance(a, b) -> float:
    """``sqrt(1 - F(a, b)^2)``, the smoothing metric."""
    f = fidelity(a, b)
    return float(np.sqrt(max(0.0, 1.0 - f * f)))


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


def uhlmann_partner(psi, target, sys_dim: int | None = None) -> np.ndarray:
    """Purification of ``target`` maximizing overlap with ``psi``.

    ``psi`` purifies some state on the primary system (first factor); the
    mirror is everything after it.  The returned vector purifies ``target``
    in the same space, and its overlap with ``psi`` equals
    ``fidelity(reduced(psi), target)``, chosen real nonnegative.
    """
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    tgt = assert_psd(target)
    d = tgt.shape[0]
    if sys_dim is not None and sys_dim != d:
        raise ValueError("target dimension does not match declared system dimension")
    if vec.size % d != 0:
        raise ValueError("psi length is not divisible by the target dimension")
    dm = vec.size // d
    w = np.linalg.eigvalsh(tgt)
    rank = int(np.sum(w > 1e-12))
    if dm < rank:
        raise ValueError(f"purifying dimension {dm} smaller than target rank {rank}")
    psi_mat = vec.reshape(d, dm)
    a = matrix_sqrt(tgt) @ psi_mat
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = s > 1e-13
    u1 = u[:, keep]
    v1 = vh.conj().T[:, keep]
    # complete with support directions of target not yet covered
    wt, vt = np.linalg.eigh(tgt)
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
    phi_mat = matrix_sqrt(tgt) @ part_iso
    return phi_mat.reshape(-1)
