"""Statistical models: the parametrized-state data type, built-in model
families (dephased two-qubit states, lossy interferometer with
definite-photon probes), random models for property tests, the support
rule shared by all three bounds, symmetric logarithmic derivatives, and
the classical Fisher-trace bound."""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .linalg import SUPPORT_TOL, herm_defect, herm_eig, hermitize


class ModelError(ValueError):
    pass


class BoundError(RuntimeError):
    """A bound that is undefined for the model, or whose program failed to
    build or solve; carries the constructed problem when one exists."""

    def __init__(self, message, problem=None):
        super().__init__(message)
        self.problem = problem


class ModelFormatError(ValueError):
    """Malformed model JSON; message names the offending field."""


@dataclass(frozen=True)
class StatisticalModel:
    """A differentiable family of density matrices at a fixed parameter point.

    `state` is the d x d density matrix, `derivs` the n partial derivatives
    with respect to the parameters, `theta` the true parameter values, and
    `labels` the parameter names.  `block_dims`, when set, records a
    block-diagonal structure shared by the state and every derivative,
    which bound builders may exploit.
    """

    dim: int
    state: np.ndarray
    derivs: tuple[np.ndarray, ...]
    theta: tuple[float, ...]
    labels: tuple[str, ...]
    block_dims: tuple[int, ...] | None = None

    def __post_init__(self):
        d = int(self.dim)
        state = np.asarray(self.state, dtype=complex)
        if state.shape != (d, d):
            raise ModelError(f"state must be {d} x {d}, got {state.shape}")
        if herm_defect(state) > 1e-10 * max(1.0, float(np.max(np.abs(state)))):
            raise ModelError("state is not Hermitian")
        state = hermitize(state)
        if abs(np.trace(state).real - 1.0) > 1e-10:
            raise ModelError(f"state trace is {np.trace(state).real!r}, not 1")
        if float(np.linalg.eigvalsh(state)[0]) < -1e-10:
            raise ModelError("state has an eigenvalue below -1e-10")
        derivs = []
        for j, dm in enumerate(self.derivs):
            dm = np.asarray(dm, dtype=complex)
            if dm.shape != (d, d):
                raise ModelError(f"derivative {j} must be {d} x {d}, got {dm.shape}")
            if herm_defect(dm) > 1e-10 * max(1.0, float(np.max(np.abs(dm)))):
                raise ModelError(f"derivative {j} is not Hermitian")
            if abs(np.trace(dm)) > 1e-10:
                raise ModelError(f"derivative {j} has trace {np.trace(dm)!r}, not 0")
            derivs.append(hermitize(dm))
        if not derivs:
            raise ModelError("at least one parameter derivative is required")
        theta = tuple(float(t) for t in self.theta)
        labels = tuple(str(s) for s in self.labels)
        if len(theta) != len(derivs) or len(labels) != len(derivs):
            raise ModelError(
                f"{len(derivs)} derivatives but {len(theta)} theta values "
                f"and {len(labels)} labels"
            )
        blocks = self.block_dims
        if blocks is not None:
            blocks = tuple(int(x) for x in blocks)
            if sum(blocks) != d or any(x <= 0 for x in blocks):
                raise ModelError(f"block dims {blocks} do not partition dimension {d}")
            for mat, what in [(state, "state")] + [
                (dm, f"derivative {j}") for j, dm in enumerate(derivs)
            ]:
                if _off_block_mass(mat, blocks) > 1e-12:
                    raise ModelError(f"{what} has weight outside the declared blocks")
        for arr in (state, *derivs):
            arr.setflags(write=False)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "derivs", tuple(derivs))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "block_dims", blocks)

    @property
    def num_params(self) -> int:
        return len(self.derivs)


def _off_block_mass(mat: np.ndarray, blocks: tuple[int, ...]) -> float:
    mask = np.ones(mat.shape, dtype=bool)
    start = 0
    for d in blocks:
        mask[start : start + d, start : start + d] = False
        start += d
    return float(np.max(np.abs(mat[mask]))) if mask.any() else 0.0


@dataclass(frozen=True)
class Support:
    """Eigendecomposition of a state block, ascending, split at SUPPORT_TOL:
    `mask` marks the support, the eigenvalues above the threshold."""

    vals: np.ndarray
    vecs: np.ndarray
    mask: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.mask.sum())

    @property
    def rotation(self) -> np.ndarray:
        """Unitary whose first `rank` columns span the support: the identity
        on a full-rank block, so that programs posed in this frame are the
        textbook ones, else the eigenvectors reordered support-first."""
        if self.mask.all():
            return np.eye(len(self.vals), dtype=complex)
        return np.hstack([self.vecs[:, self.mask], self.vecs[:, ~self.mask]])


def state_support(state, derivs=(), blocks=None) -> tuple[Support, ...]:
    """The support rule of all three bounds: one Support per diagonal block
    (offset, size) of `state`, or one for the whole state by default.

    The bounds are posed on the support, and S L + L S = 2 dS has no
    solution when dS has weight inside the kernel.  So a derivative whose
    kernel-kernel corner has spectral norm above SUPPORT_TOL, largest over
    the blocks, is a BoundError.  The norm does not depend on the kernel
    basis the eigensolver picks, so a state and its blocks agree.
    """
    supports = []
    weights = np.zeros(len(derivs))
    for off, dl in blocks or [(0, len(state))]:
        w, u = herm_eig(state[off : off + dl, off : off + dl])
        mask = w > SUPPORT_TOL
        kern = u[:, ~mask]
        for e, dm in enumerate(derivs):
            kk = kern.conj().T @ dm[off : off + dl, off : off + dl] @ kern
            if kk.size:
                weights[e] = max(weights[e], np.linalg.norm(kk, 2))
        supports.append(Support(w, u, mask))
    for e, weight in enumerate(weights):
        if weight > SUPPORT_TOL:
            raise BoundError(
                f"derivative {e} has weight {weight:.2e} inside "
                "the kernel of the state: its expectation pin would be "
                "satisfiable at zero cost and the bound would be meaningless"
            )
    return tuple(supports)


@dataclass(frozen=True)
class SLDData:
    operators: tuple[np.ndarray, ...]
    fisher: np.ndarray
    support: Support


def phase_damping_model(epsilon: float, params: str = "xyz") -> StatisticalModel:
    """Two-qubit dephasing model at the reference parameter point.

    `epsilon` is the damping strength in [0, 1]; `params` selects which of
    the three rotation parameters are estimated and fixes their order.
    The state has rank at most 2.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ModelError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    chosen = list(params)
    if not chosen or any(p not in ("x", "y", "z") for p in chosen) or len(set(chosen)) != len(chosen):
        raise ModelError(f"params must be a non-repeating subset of 'xyz', got {params!r}")
    e = 1.0 - epsilon
    state = 0.25 * np.array(
        [[0, 0, 0, 0], [0, 2, 2 * e, 0], [0, 2 * e, 2, 0], [0, 0, 0, 0]],
        dtype=complex,
    )
    d_by_name = {
        "x": 0.25 * np.array(
            [
                [0, -1j, -1j * e, 0],
                [1j, 0, 0, 1j * e],
                [1j * e, 0, 0, 1j],
                [0, -1j * e, -1j, 0],
            ]
        ),
        "y": 0.25 * np.array(
            [[0, -1, -e, 0], [-1, 0, 0, e], [-e, 0, 0, 1], [0, e, 1, 0]],
            dtype=complex,
        ),
        "z": 0.5 * np.array(
            [[0, 0, 0, 0], [0, 0, -1j * e, 0], [0, 1j * e, 0, 0], [0, 0, 0, 0]]
        ),
    }
    return StatisticalModel(
        dim=4,
        state=state,
        derivs=tuple(d_by_name[p] for p in chosen),
        theta=(0.0,) * len(chosen),
        labels=tuple(chosen),
    )


def holland_burnett_probe(n_photons: int) -> np.ndarray:
    """Amplitudes over |k, N-k> after a balanced beam splitter acts on
    |N/2, N/2>.

    Built numerically: the two-mode mixing generator restricted to the
    N-photon sector is tridiagonal, and the 50:50 splitter is its matrix
    exponential at angle pi/4.  The global phase is stripped so the first
    nonzero amplitude is positive; odd-k amplitudes vanish.
    """
    n = int(n_photons)
    if n < 2 or n % 2:
        raise ModelError(f"photon number must be even and >= 2, got {n_photons!r}")
    gen = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n):
        gen[k + 1, k] = gen[k, k + 1] = np.sqrt((k + 1) * (n - k))
    w, u = herm_eig(gen)
    unitary = (u * np.exp(1j * (np.pi / 4) * w)) @ u.conj().T
    amps = unitary[:, n // 2].copy()
    lead = amps[np.argmax(np.abs(amps) > 1e-12)]
    amps *= np.abs(lead) / lead
    amps[np.abs(amps) < 1e-12] = 0.0
    if np.max(np.abs(amps.imag)) < 1e-12:
        amps = amps.real.astype(complex)
    return amps


def interferometer_model(
    amplitudes, eta: float, phi: float = 0.0
) -> StatisticalModel:
    """Lossy two-parameter interferometer model for a definite-photon probe.

    The probe sum_k a_k |k, N-k> picks up phase phi on the lossy arm with
    transmissivity eta; tracing out the loss mode leaves a block-diagonal
    state, one block per number of lost photons l = N..0, each block a
    rank-one matrix.  Parameters are ordered (phi, eta) and the block
    dimensions are recorded on the model.
    """
    a = np.asarray(amplitudes, dtype=complex).ravel()
    n = len(a) - 1
    if n < 1:
        raise ModelError("need at least two amplitudes")
    if abs(np.sum(np.abs(a) ** 2) - 1.0) > 1e-10:
        raise ModelError(f"amplitudes are not normalized: sum of squares is {np.sum(np.abs(a)**2)!r}")
    if not 0.0 < eta <= 1.0:
        raise ModelError(f"eta must lie in (0, 1], got {eta!r}")
    dim = (n + 1) * (n + 2) // 2
    state = np.zeros((dim, dim), dtype=complex)
    d_phi = np.zeros((dim, dim), dtype=complex)
    d_eta = np.zeros((dim, dim), dtype=complex)
    blocks = []
    start = 0
    for l in range(n, -1, -1):
        size = n - l + 1
        ks = np.arange(l, n + 1)
        for ia, k in enumerate(ks):
            for ib, kp in enumerate(ks):
                coef = (
                    a[k]
                    * np.conj(a[kp])
                    * np.sqrt(comb(k, l) * comb(kp, l))
                    * np.exp(1j * (k - kp) * phi)
                )
                pw = (k + kp - 2 * l) / 2.0
                base = coef * eta**pw * (1 - eta) ** l
                i, j = start + ia, start + ib
                state[i, j] = base
                d_phi[i, j] = 1j * (k - kp) * base
                # two-term product rule; guarded powers keep eta = 1 finite
                val = 0.0
                if pw:
                    val += pw * eta ** (pw - 1) * (1 - eta) ** l
                if l:
                    val -= l * eta**pw * (1 - eta) ** (l - 1)
                d_eta[i, j] = coef * val
        blocks.append(size)
        start += size
    return StatisticalModel(
        dim=dim,
        state=state,
        derivs=(d_phi, d_eta),
        theta=(float(phi), float(eta)),
        labels=("phi", "eta"),
        block_dims=tuple(blocks),
    )


def random_model(seed: int, dim: int, num_params: int) -> StatisticalModel:
    """Full-rank random model, deterministic in the seed."""
    if dim < 2 or num_params < 1:
        raise ModelError(f"need dim >= 2 and num_params >= 1, got {dim}, {num_params}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    state = g @ g.conj().T + 0.1 * np.eye(dim)
    state /= np.trace(state).real
    derivs = []
    for _ in range(num_params):
        h = hermitize(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        h -= (np.trace(h) / dim) * np.eye(dim)
        derivs.append(h)
    theta = 0.5 * rng.uniform(-1.0, 1.0, size=num_params)
    return StatisticalModel(
        dim=dim,
        state=state,
        derivs=tuple(derivs),
        theta=tuple(theta),
        labels=tuple(f"p{j}" for j in range(num_params)),
    )


def sld(model: StatisticalModel) -> SLDData:
    """Symmetric logarithmic derivatives and their Fisher information.

    Solves S L + L S = 2 dS in the eigenbasis of S from state_support,
    which raises BoundError when a derivative has weight inside the
    kernel; the kernel-kernel components of L are set to zero.
    """
    sup = state_support(model.state, model.derivs)[0]
    w, u = sup.vals, sup.vecs
    denom = w[:, None] + w[None, :]
    ok = sup.mask[:, None] | sup.mask[None, :]
    ops = []
    for dm in model.derivs:
        dtil = u.conj().T @ dm @ u
        ltil = np.where(ok, 2.0 * dtil / np.where(ok, denom, 1.0), 0.0)
        ops.append(hermitize(u @ ltil @ u.conj().T))
    n = model.num_params
    fisher = np.zeros((n, n))
    s = model.state
    for j in range(n):
        for k in range(j, n):
            val = 0.5 * np.trace(s @ (ops[j] @ ops[k] + ops[k] @ ops[j])).real
            fisher[j, k] = fisher[k, j] = val
    return SLDData(operators=tuple(ops), fisher=fisher, support=sup)


def sld_bound(model: StatisticalModel) -> float:
    """Trace of the inverse SLD Fisher information.

    Raises BoundError, as sld does, when a derivative has weight inside
    the kernel of the state.  Falls back to the pseudo-inverse, with a
    warning, when the Fisher matrix is singular on the parameter set.
    """
    fisher = sld(model).fisher
    w = np.linalg.eigvalsh(fisher)
    if w[0] <= 1e-10 * max(1.0, float(w[-1])):
        warnings.warn(
            "Fisher information is singular; using its pseudo-inverse",
            stacklevel=2,
        )
        return float(np.trace(np.linalg.pinv(fisher, rcond=1e-10)))
    return float(np.trace(np.linalg.inv(fisher)))


def encode_matrix(mat) -> list:
    """A complex matrix for JSON: each entry becomes a [re, im] pair."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat)]


def model_to_dict(model: StatisticalModel) -> dict:
    """Encode for JSON: complex entries become [re, im] pairs."""
    return {
        "dim": model.dim,
        "state": encode_matrix(model.state),
        "derivs": [encode_matrix(dm) for dm in model.derivs],
        "theta": [float(t) for t in model.theta],
        "labels": list(model.labels),
    }


def decode_matrix(obj, dim, field: str, error: type[Exception]) -> np.ndarray:
    """Inverse of encode_matrix for a dim x dim matrix; raises `error`
    naming `field` on a malformed payload."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise error(f"field '{field}': expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise error(f"field '{field}': row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) for v in entry)
            ):
                raise error(f"field '{field}': entry ({i}, {j}) must be a [re, im] pair")
            out[i, j] = complex(entry[0], entry[1])
    return out


def model_from_dict(data) -> StatisticalModel:
    """Decode and validate the JSON model schema.

    Raises ModelFormatError naming the offending field on any schema or
    invariant violation.
    """
    if not isinstance(data, dict):
        raise ModelFormatError("top level: expected a JSON object")
    for key in ("dim", "state", "derivs", "theta", "labels"):
        if key not in data:
            raise ModelFormatError(f"field '{key}': missing")
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise ModelFormatError(f"field 'dim': expected an integer >= 2, got {dim!r}")
    state = decode_matrix(data["state"], dim, "state", ModelFormatError)
    if not isinstance(data["derivs"], list) or not data["derivs"]:
        raise ModelFormatError("field 'derivs': expected a non-empty list of matrices")
    derivs = tuple(
        decode_matrix(dm, dim, f"derivs[{j}]", ModelFormatError)
        for j, dm in enumerate(data["derivs"])
    )
    theta = data["theta"]
    if not isinstance(theta, list) or not all(isinstance(t, (int, float)) for t in theta):
        raise ModelFormatError("field 'theta': expected a list of numbers")
    labels = data["labels"]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ModelFormatError("field 'labels': expected a list of strings")
    try:
        return StatisticalModel(
            dim=dim, state=state, derivs=derivs, theta=tuple(theta), labels=tuple(labels)
        )
    except ModelError as exc:
        raise ModelFormatError(f"model invariant violated: {exc}") from exc
