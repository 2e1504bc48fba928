"""Dense Hermitian matrix kernel: the Hermitian-input rule that every
matrix handed to the package passes (`checked_hermitian`, `checked_state`),
eigendecomposition, PSD square root, trace norm, the complex-to-real
symmetric embedding, and the rules for scalar arguments (`is_number`,
`is_integer`)."""
from __future__ import annotations

import numbers

import numpy as np

# eigenvalues of a state at or below this are its kernel; model.state_support
# and psd_sqrt are the two places that split a spectrum
SUPPORT_TOL = 1e-10
# an SLD Fisher matrix whose smallest eigenvalue is at most this fraction of
# its largest is singular: model.Analysis.fisher_inverse, for all three bounds
FISHER_TOL = 1e-10


class LinalgError(ValueError):
    pass


def is_number(v) -> bool:
    """Whether `v` is a real number, Python's or numpy's: not complex, not a
    string, and not `true` or `false`, though Python's bool is an int."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_integer(v) -> bool:
    """Whether `v` is an integer, Python's or numpy's, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2."""
    return 0.5 * (a + a.conj().T)


def is_hermitian(a: np.ndarray) -> bool:
    """Whether max |A - A†| is at most 1e-10 of max(1, largest |entry|)."""
    if not a.size:
        return True
    return float(np.max(np.abs(a - a.conj().T))) <= 1e-10 * max(1.0, float(np.max(np.abs(a))))


def checked_hermitian(mat, d: int, what: str, error: type[Exception], dtype=complex) -> np.ndarray:
    """The Hermitian part (A + A†)/2 of `mat` as `dtype`, once it is d x d,
    finite, and Hermitian (symmetric when real) by `is_hermitian`; `error`
    naming it as `what` otherwise.  The one rule for every matrix the
    package takes in: model states and derivatives, POVM outcomes,
    estimators, program objectives and hints, and the input of `herm_eig`
    and `realify`."""
    mat = np.asarray(mat, dtype=dtype)
    if mat.shape != (d, d):
        raise error(f"{what} must be {d} x {d}, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise error(f"{what} has non-finite entries")
    if not is_hermitian(mat):
        raise error(f"{what} is not {'Hermitian' if mat.dtype.kind == 'c' else 'symmetric'}")
    return hermitize(mat)


def checked_state(state, d: int, error: type[Exception]) -> np.ndarray:
    """A d x d density matrix under the rule of `checked_hermitian`, with
    trace 1 and no eigenvalue below -1e-10, to 1e-10; `error` otherwise."""
    state = checked_hermitian(state, d, "state", error)
    if abs(np.trace(state).real - 1.0) > 1e-10:
        raise error(f"state trace is {float(np.trace(state).real)!r}, not 1")
    if float(np.linalg.eigvalsh(state)[0]) < -1e-10:
        raise error("state has an eigenvalue below -1e-10")
    return state


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, u) with w real ascending and h = u @ diag(w) @ u†.
    The input is symmetrized first so accumulated rounding in matrix
    products cannot push eigh off the Hermitian branch.
    """
    d = len(h) if np.ndim(h) else 0
    w, u = np.linalg.eigh(checked_hermitian(h, d, "herm_eig input", LinalgError))
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
    d = len(h) if np.ndim(h) else 0
    h = checked_hermitian(h, d, "realify input", LinalgError)
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
