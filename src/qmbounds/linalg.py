"""Dense Hermitian matrix kernel: eigendecomposition, PSD square root,
trace norm, and the complex-to-real symmetric embedding."""
from __future__ import annotations

import numpy as np

HERM_RTOL = 1e-12
# eigenvalues of a state at or below this are its kernel; model.state_support
# and psd_sqrt are the two places that split a spectrum
SUPPORT_TOL = 1e-10


class LinalgError(ValueError):
    pass


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2."""
    return 0.5 * (a + a.conj().T)


def herm_defect(a: np.ndarray) -> float:
    """Max entrywise |A - A†|."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def is_hermitian(a: np.ndarray, rtol: float = HERM_RTOL) -> bool:
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    return herm_defect(a) <= rtol * scale


def _require_hermitian(a: np.ndarray, where: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"{where}: expected a square matrix, got shape {a.shape}")
    if not is_hermitian(a):
        raise LinalgError(
            f"{where}: input is not Hermitian (defect {herm_defect(a):.3e})"
        )


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, u) with w real ascending and h = u @ diag(w) @ u†.
    The input is symmetrized first so accumulated rounding in matrix
    products cannot push eigh off the Hermitian branch.
    """
    _require_hermitian(h, "herm_eig")
    w, u = np.linalg.eigh(hermitize(np.asarray(h, dtype=complex)))
    return w, u


def trace_abs(a: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix (trace norm)."""
    w, _ = herm_eig(a)
    return float(np.sum(np.abs(w)))


def psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root.

    Uses the support threshold SUPPORT_TOL of model.state_support: an
    eigenvalue below -SUPPORT_TOL is a genuine negativity and is rejected,
    and every eigenvalue up to +SUPPORT_TOL is set to zero, so the root
    vanishes on the kernel that the bounds use.
    """
    w, u = herm_eig(s)
    if w[0] < -SUPPORT_TOL:
        raise LinalgError(f"psd_sqrt: matrix has negative eigenvalue {w[0]:.3e}")
    # zero everything up to the threshold, not just negatives: sqrt amplifies
    # eigenvalue noise of order 1e-17 to 1e-9 otherwise
    w = np.where(w <= SUPPORT_TOL, 0.0, w)
    return hermitize((u * np.sqrt(w)) @ u.conj().T)


def realify(h: np.ndarray) -> np.ndarray:
    """Embed a Hermitian d x d matrix as a real symmetric 2d x 2d one.

    Layout [[Re H, -Im H], [Im H, Re H]].  The embedding preserves the
    PSD cone and doubles the multiplicity of every eigenvalue, so
    trace(realify(H)) = 2 trace(H).
    """
    _require_hermitian(h, "realify")
    h = np.asarray(h, dtype=complex)
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]]).astype(float)


def derealify(w: np.ndarray) -> np.ndarray:
    """Project a real symmetric 2d x 2d matrix back to a Hermitian d x d one.

    Inverse of realify on its image; for a general symmetric input this
    averages the two blocks, which preserves feasibility of SDP iterates.
    """
    if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] % 2:
        raise LinalgError(f"derealify: expected even square shape, got {w.shape}")
    d = w.shape[0] // 2
    re = 0.5 * (w[:d, :d] + w[d:, d:])
    im = 0.5 * (w[d:, :d] - w[:d, d:])
    return hermitize(re + 1j * im)
