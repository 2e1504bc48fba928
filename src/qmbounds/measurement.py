"""Measurements, estimator coefficients, and their error matrices.

An estimator attaches to POVM outcome m the estimate theta_j + xi_jm, so
the coefficient grid xi holds estimation errors about the working point.
Local unbiasedness of the estimates reads

    sum_m tr(S Pi_m) (theta_j + xi_jm) = theta_j
    sum_m tr(d_k S Pi_m) (theta_j + xi_jm) = delta_jk .

Completeness of the POVM collapses the first condition to
sum_m p_m xi_jm = 0, and tracelessness of each state derivative collapses
the second to sum_m tr(d_k S Pi_m) xi_jm = delta_jk; every check in this
module works in that xi form.

POVM outcomes enter under the Hermitian-input rule of
`linalg.checked_hermitian`.  Besides the generic types and checks, two
analytic estimator families are provided: a five-outcome measurement
saturating the separable-measurement bound for the dephased two-qubit
pair (with an optional seven-outcome refinement that also estimates the
longitudinal parameter), and a four-outcome measurement saturating the
collective bound for the single-photon lossy interferometer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import checked_hermitian, hermitize, is_integer, is_number
from .model import StatisticalModel, decode_matrix, encode_matrix


# validate_povm passes an outcome whose lowest eigenvalue is at least
# -EIG_TOL and a sum within COMPLETENESS_TOL of the identity (largest entry);
# check_unbiased passes residuals up to UNBIASED_TOL
EIG_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
UNBIASED_TOL = 1e-8


class MeasurementError(ValueError):
    """Invalid measurement data or parameters outside the valid region."""


class MeasurementFormatError(ValueError):
    """Malformed JSON payload for an estimator."""


@dataclass(frozen=True)
class POVM:
    """Finite collection of outcome operators on one Hilbert space, each
    square, finite and Hermitian to 1e-10 relative (the rule of
    `linalg.checked_hermitian`), and stored as its Hermitian part."""

    outcomes: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.outcomes:
            raise MeasurementError("a POVM needs at least one outcome")
        ops = []
        d = None
        for i, op in enumerate(self.outcomes):
            mat = np.asarray(op, dtype=complex)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise MeasurementError(f"outcome {i} is not a square matrix")
            if d is None:
                d = mat.shape[0]
            elif mat.shape[0] != d:
                raise MeasurementError(
                    f"outcome {i} has dimension {mat.shape[0]}, expected {d}"
                )
            ops.append(checked_hermitian(mat, d, f"outcome {i}", MeasurementError))
        object.__setattr__(self, "outcomes", tuple(ops))

    @property
    def dim(self) -> int:
        return self.outcomes[0].shape[0]

    @property
    def num_outcomes(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class Estimator:
    """POVM together with the per-outcome error coefficients xi.

    Row j of xi lists, over outcomes, the error theta_hat_jm - theta_j
    that outcome m contributes to parameter j.  The optional meta dict
    records construction details (validity margins, split weights).
    """

    povm: POVM
    xi: np.ndarray
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if np.iscomplexobj(self.xi):
            raise MeasurementError("xi is complex")
        grid = np.asarray(self.xi, dtype=float)
        if grid.ndim != 2:
            raise MeasurementError("xi must be a 2-d array")
        if not np.all(np.isfinite(grid)):
            raise MeasurementError("xi has non-finite entries")
        if grid.shape[1] != self.povm.num_outcomes:
            raise MeasurementError(
                f"xi has {grid.shape[1]} columns for "
                f"{self.povm.num_outcomes} outcomes"
            )
        object.__setattr__(self, "xi", grid)

    @property
    def num_params(self) -> int:
        return self.xi.shape[0]


@dataclass(frozen=True)
class PovmReport:
    """Per-outcome positivity floors and the completeness residual."""

    min_eigenvalues: tuple[float, ...]
    completeness_residual: float
    passed: bool


@dataclass(frozen=True)
class UnbiasedReport:
    """Residuals of the two local-unbiasedness conditions in xi form."""

    state_residuals: tuple[float, ...]
    derivative_residuals: np.ndarray
    max_residual: float
    passed: bool


@dataclass(frozen=True)
class SampleResult:
    """Empirical second-moment matrix of the errors from finite shots."""

    matrix: np.ndarray
    shots: int
    seed: int
    generator: str
    warning: str | None = None


def validate_povm(povm: POVM) -> PovmReport:
    """Check positivity of every outcome and completeness of the sum."""
    floors = tuple(
        float(np.linalg.eigvalsh(hermitize(op))[0]) for op in povm.outcomes
    )
    total = sum(povm.outcomes)
    residual = float(np.max(np.abs(total - np.eye(povm.dim))))
    ok = all(f >= -EIG_TOL for f in floors) and residual <= COMPLETENESS_TOL
    return PovmReport(
        min_eigenvalues=floors,
        completeness_residual=residual,
        passed=ok,
    )


def outcome_probabilities(state: np.ndarray, povm: POVM) -> np.ndarray:
    """tr(S Pi_m) for every outcome, as a real vector."""
    state = np.asarray(state, dtype=complex)
    return np.array(
        [float(np.trace(state @ op).real) for op in povm.outcomes]
    )


def _check_dims(model: StatisticalModel, estimator: Estimator) -> None:
    if estimator.povm.dim != model.dim:
        raise MeasurementError(
            f"POVM dimension {estimator.povm.dim} does not match "
            f"model dimension {model.dim}"
        )
    if estimator.num_params != model.num_params:
        raise MeasurementError(
            f"xi has {estimator.num_params} rows for a model with "
            f"{model.num_params} parameters"
        )


def mse_matrix(model: StatisticalModel, estimator: Estimator) -> np.ndarray:
    """Second-moment matrix of the errors, V_jk = sum_m xi_jm xi_km p_m."""
    _check_dims(model, estimator)
    p = outcome_probabilities(model.state, estimator.povm)
    v = (estimator.xi * p) @ estimator.xi.T
    return 0.5 * (v + v.T)


def check_unbiased(model: StatisticalModel, estimator: Estimator) -> UnbiasedReport:
    """Residuals of both local-unbiasedness conditions at the working point."""
    _check_dims(model, estimator)
    p = outcome_probabilities(model.state, estimator.povm)
    state_res = tuple(float(abs(v)) for v in estimator.xi @ p)
    n = model.num_params
    deriv_res = np.zeros((n, n))
    for k, dk in enumerate(model.derivs):
        dp = outcome_probabilities(dk, estimator.povm)
        got = estimator.xi @ dp
        for j in range(n):
            want = 1.0 if j == k else 0.0
            deriv_res[j, k] = abs(got[j] - want)
    worst = max(max(state_res), float(np.max(deriv_res)))
    return UnbiasedReport(
        state_residuals=state_res,
        derivative_residuals=deriv_res,
        max_residual=worst,
        passed=worst <= UNBIASED_TOL,
    )


def estimator_to_X(estimator: Estimator) -> list[np.ndarray]:
    """Observables X_j = sum_m xi_jm Pi_m built from the coefficients."""
    out = []
    for row in estimator.xi:
        x = sum(c * op for c, op in zip(row, estimator.povm.outcomes))
        out.append(hermitize(x))
    return out


def phase_damping_povm(
    epsilon: float, a: float, b: float, split_delta: float | None = None
) -> Estimator:
    """Saturating measurement for the dephased two-qubit pair.

    The five outcomes are four rank-one projectors, two per equatorial
    parameter, plus the completion; the error coefficients put weight
    +-2/((2-eps)a) and +-2/((2-eps)b) on the two projector pairs.  The
    resulting error-matrix trace is 4/(2-eps) for every admissible
    (a, b), which meets the separable-measurement bound for the
    two-parameter family.

    With split_delta given, the completion outcome is divided into three
    parts so the longitudinal parameter can be estimated as well; the
    split weight must equal (a^2 + b^2)/2, and the longitudinal variance
    is 1/((1-eps)^2 (1-2 delta)).
    """
    if not is_number(epsilon):
        raise MeasurementError(f"epsilon must be a real number, got {epsilon!r}")
    if not 0.0 <= epsilon <= 1.0:
        raise MeasurementError("epsilon must lie in [0, 1]")
    if not (is_number(a) and is_number(b)):
        raise MeasurementError(f"a and b must be real numbers, got {a!r}, {b!r}")
    # written so that a NaN fails each check
    if not (abs(a) > 0.0 and abs(b) > 0.0):
        raise MeasurementError(f"a and b must be non-zero numbers, got {a:g}, {b:g}")
    weight = 0.5 * (a * a + b * b)
    if not a * a + b * b <= 1.0 + 1e-12:
        raise MeasurementError("a^2 + b^2 must not exceed 1")

    def proj(vec):
        v = np.asarray(vec, dtype=complex) / 2.0
        return np.outer(v, v.conj())

    p1 = proj([1.0, 1j * a, 1j * a, 1.0])
    p2 = proj([1.0, -1j * a, -1j * a, 1.0])
    p3 = proj([1.0, -b, -b, -1.0])
    p4 = proj([1.0, b, b, -1.0])
    rest = np.eye(4, dtype=complex) - (p1 + p2 + p3 + p4)
    ca = 2.0 / ((2.0 - epsilon) * a)
    cb = 2.0 / ((2.0 - epsilon) * b)

    if split_delta is None:
        xi = np.zeros((2, 5))
        xi[0, 0], xi[0, 1] = ca, -ca
        xi[1, 2], xi[1, 3] = cb, -cb
        return Estimator(
            povm=POVM(outcomes=(p1, p2, p3, p4, rest)),
            xi=xi,
            meta={"completion_weight": weight},
        )

    if not abs(split_delta - weight) <= 1e-9:
        raise MeasurementError(
            "split_delta must equal (a^2 + b^2)/2 = "
            f"{float(weight)!r}, got {split_delta!r}"
        )
    if epsilon >= 1.0:
        raise MeasurementError("the split form needs epsilon < 1")
    if 1.0 - 2.0 * weight <= 1e-12:
        raise MeasurementError(
            "the split form needs a^2 + b^2 < 1, the completion "
            "outcome vanishes otherwise"
        )
    delta = weight
    mid = np.zeros((4, 4), dtype=complex)
    mid[1, 1] = mid[2, 2] = 1.0
    mid[1, 2] = mid[2, 1] = -1.0
    p5 = delta * mid
    circ_plus = np.zeros((4, 4), dtype=complex)
    circ_plus[1, 1] = circ_plus[2, 2] = 1.0
    circ_plus[1, 2] = -1j
    circ_plus[2, 1] = 1j
    p6 = 0.5 * (1.0 - 2.0 * delta) * circ_plus
    p7 = 0.5 * (1.0 - 2.0 * delta) * circ_plus.conj()
    cz = 1.0 / ((1.0 - epsilon) * (1.0 - 2.0 * delta))
    xi = np.zeros((3, 7))
    xi[0, 0], xi[0, 1] = ca, -ca
    xi[1, 2], xi[1, 3] = cb, -cb
    xi[2, 5], xi[2, 6] = cz, -cz
    return Estimator(
        povm=POVM(outcomes=(p1, p2, p3, p4, p5, p6, p7)),
        xi=xi,
        meta={"completion_weight": weight, "split_delta": delta},
    )


def interferometer_povm(a0: float, a1: float, eta: float) -> Estimator:
    """Saturating measurement for the single-photon lossy interferometer.

    Works on the three-dimensional space ordered as (photon lost,
    reference arm, lossy arm).  Validity is decided by a numerical
    eigenvalue check on the constructed outcomes, not by a closed-form
    condition on eta; for reference, the meta dict records whether eta
    clears each of two natural thresholds, the half amplitude gap
    (a0^2 - a1^2)/2 and the same gap scaled by 1/a0^2.  Exactly at the
    boundary of validity one outcome vanishes and a three-outcome
    projective form is returned.
    """
    if a0 <= 0.0 or a1 <= 0.0:
        raise MeasurementError("amplitudes must be positive")
    if abs(a0 * a0 + a1 * a1 - 1.0) > 1e-9:
        raise MeasurementError("amplitudes must satisfy a0^2 + a1^2 = 1")
    if not is_number(eta):
        raise MeasurementError(f"eta must be a real number, got {eta!r}")
    if not 0.0 < eta < 1.0:
        raise MeasurementError("eta must lie in (0, 1)")
    a0sq, a1sq = a0 * a0, a1 * a1
    denom = (1.0 - eta) * (1.0 + 2.0 * eta) * a0sq - eta * a1sq
    if denom <= 0.0:
        raise MeasurementError(
            f"support denominator {float(denom)!r} is not positive at eta={eta!r}"
        )
    bsq = a0sq / denom
    gap = 1.0 - bsq
    if gap < -1e-10:
        raise MeasurementError(
            f"outcome 2 has negative eigenvalue {gap:.3e} at eta={eta!r}; "
            "eta lies outside the valid region"
        )
    bb = a0 / np.sqrt(denom)
    lost = np.zeros((3, 3), dtype=complex)
    lost[0, 0] = 1.0
    excess = np.zeros((3, 3), dtype=complex)
    excess[2, 2] = gap
    circ = np.zeros((3, 3), dtype=complex)
    circ[1, 1] = 1.0
    circ[2, 2] = bsq
    circ[1, 2] = -1j * bb
    circ[2, 1] = 1j * bb
    p3 = 0.5 * circ
    p4 = 0.5 * circ.conj()
    cphi = np.sqrt(denom) / (2.0 * np.sqrt(eta) * a0sq * a1)
    xi_eta = [
        -(1.0 + 2.0 * eta) / (2.0 * a1sq),
        (1.0 - eta) * (1.0 + 2.0 * eta) / (2.0 * eta * a1sq),
        1.0 / (2.0 * a0sq),
        1.0 / (2.0 * a0sq),
    ]
    xi_phi = [0.0, 0.0, cphi, -cphi]
    boundary = bool(gap <= 1e-10)
    if boundary:
        outcomes = (lost, p3, p4)
        keep = [0, 2, 3]
    else:
        outcomes = (lost, excess, p3, p4)
        keep = [0, 1, 2, 3]
    xi = np.array([[xi_phi[i] for i in keep], [xi_eta[i] for i in keep]])
    meta = {
        "min_eigenvalue": float(
            min(np.linalg.eigvalsh(hermitize(op))[0] for op in outcomes)
        ),
        "boundary": boundary,
        "eta_lt_half_gap": bool(eta < 0.5 * (a0sq - a1sq)),
        "eta_lt_scaled_gap": bool(eta < 0.5 * (a0sq - a1sq) / a0sq),
    }
    return Estimator(povm=POVM(outcomes=outcomes), xi=xi, meta=meta)


def sample(
    model: StatisticalModel, estimator: Estimator, shots: int, seed: int
) -> SampleResult:
    """Empirical error second-moment matrix from Monte Carlo outcome draws.

    Outcomes are drawn by inverting the cumulative distribution of the
    outcome probabilities; the generator is a seeded 64-bit PCG, named in
    the result so runs can be reproduced.
    """
    _check_dims(model, estimator)
    for name, v in (("shots", shots), ("seed", seed)):
        if not is_integer(v):
            raise MeasurementError(f"{name} must be an integer, got {v!r}")
    if shots < 0:
        raise MeasurementError("shots must be non-negative")
    if seed < 0:
        raise MeasurementError(f"seed must be non-negative, got {seed!r}")
    n = estimator.num_params
    if shots == 0:
        return SampleResult(
            matrix=np.zeros((n, n)),
            shots=0,
            seed=seed,
            generator="PCG64",
            warning="no shots drawn; matrix is identically zero",
        )
    p = outcome_probabilities(model.state, estimator.povm)
    if p.min() < -1e-9:
        raise MeasurementError(
            f"outcome probability {p.min():.3e} is negative beyond tolerance"
        )
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        raise MeasurementError(
            f"outcome probabilities sum to {float(total)!r}, not 1"
        )
    p = p / total
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.random(shots)
    idx = np.searchsorted(np.cumsum(p), draws, side="right")
    idx = np.minimum(idx, len(p) - 1)
    counts = np.bincount(idx, minlength=len(p)) / shots
    v = (estimator.xi * counts) @ estimator.xi.T
    return SampleResult(
        matrix=0.5 * (v + v.T),
        shots=shots,
        seed=seed,
        generator="PCG64",
    )


def estimator_to_dict(estimator: Estimator) -> dict:
    """Encode for JSON: complex entries become [re, im] pairs."""
    return {
        "outcomes": [encode_matrix(op) for op in estimator.povm.outcomes],
        "xi": [[float(v) for v in row] for row in estimator.xi],
    }


def estimator_from_dict(data) -> Estimator:
    """Decode the JSON form produced by estimator_to_dict."""
    if not isinstance(data, dict):
        raise MeasurementFormatError("payload must be a JSON object")
    outcomes = data.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise MeasurementFormatError(
            "field 'outcomes': expected a non-empty list of matrices"
        )
    first = outcomes[0]
    if not isinstance(first, list) or not first:
        raise MeasurementFormatError(
            "field 'outcomes': entry 0 must be a non-empty matrix"
        )
    dim = len(first)
    ops = [
        decode_matrix(op, dim, f"outcomes[{i}]", MeasurementFormatError)
        for i, op in enumerate(outcomes)
    ]
    grid = data.get("xi")
    if not isinstance(grid, list) or not grid:
        raise MeasurementFormatError(
            "field 'xi': expected a non-empty list of rows"
        )
    rows = []
    for j, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != len(ops):
            raise MeasurementFormatError(
                f"field 'xi': row {j} must have {len(ops)} entries"
            )
        if not all(is_number(v) for v in row):
            raise MeasurementFormatError(
                f"field 'xi': row {j} must contain numbers"
            )
        rows.append([float(v) for v in row])
    return Estimator(povm=POVM(outcomes=tuple(ops)), xi=np.array(rows))
