"""Standard-form SDP: problem/solution types, a primal-dual interior-point
solver with Nesterov-Todd scaling and Mehrotra correction, certificate
checks, and sparse text-format round-trip I/O.

The primal problem is  minimize <C, Y>  subject to  <A_i, Y> = b_i, Y >= 0
with Y block-diagonal; the dual is  maximize b.y  subject to
Z = C - sum_i y_i A_i >= 0.  Reported objectives carry the problem's
`scale` factor so callers can hand in data in a doubled embedding.

All dense linear algebra goes through numpy's LAPACK: the Newton system is
solved with the inverse of its Cholesky factor, and row dedupe uses
numpy's QR.  No second BLAS library is loaded, so the process has one BLAS
thread pool, not two that compete for the same cores.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

DEP_TOL = 1e-10
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_STEP_BACKOFF = 0.98
_STALL_STEP = 1e-3
_STALL_LIMIT = 5

BlockMat = dict[int, np.ndarray]


class SDPError(RuntimeError):
    """Construction or solver failure (reported, never silent)."""


class SDPAFormatError(ValueError):
    """Malformed problem text; message carries the offending line."""


class ConstraintStore(NamedTuple):
    """Constraint matrices in coordinate form, as in the sparse text format
    but with both triangles: entry k says that row `row[k]` has value
    `val[k]` at flat position `col[k]` = i*d + j of block `block[k]`.  It
    holds only nonzeros, sorted by (row, block, col)."""

    row: np.ndarray
    block: np.ndarray
    col: np.ndarray
    val: np.ndarray


@dataclass(frozen=True)
class SDPProblem:
    """Standard-form data over a block-diagonal PSD variable.

    `objective` is block-sparse: a dict from block index to a dense
    symmetric matrix of that block's dimension.  The constraint matrices
    live once, in `store`, numbered 0..num_constraints-1.  `dropped` counts
    linearly dependent constraint rows removed at construction.  Hints are
    optional strictly feasible starting data.
    """

    block_dims: tuple[int, ...]
    objective: BlockMat
    store: ConstraintStore
    b: np.ndarray
    scale: float = 1.0
    dropped: int = 0
    primal_hint: tuple[np.ndarray, ...] | None = None
    dual_hint: np.ndarray | None = None

    @property
    def num_constraints(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class SDPSolution:
    primal: tuple[np.ndarray, ...]
    dual_y: np.ndarray
    dual_Z: tuple[np.ndarray, ...]
    primal_obj: float
    dual_obj: float
    gap: float
    iterations: int
    status: str
    primal_infeas: float = 0.0
    dual_infeas: float = 0.0


@dataclass(frozen=True)
class CertificateReport:
    constraint_violation: float
    dual_residual: float
    primal_min_eig: float
    dual_min_eig: float
    gap: float
    checks: dict[str, bool] = field(default_factory=dict)
    passed: bool = False


def _as_sym(mat: np.ndarray, dim: int, what: str) -> np.ndarray:
    m = np.asarray(mat, dtype=float)
    if m.shape != (dim, dim):
        raise SDPError(f"{what}: expected shape ({dim}, {dim}), got {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    if np.max(np.abs(m - m.T)) > 1e-10 * scale:
        raise SDPError(f"{what}: matrix is not symmetric")
    return 0.5 * (m + m.T)


def make_problem(
    block_dims,
    objective: BlockMat,
    constraints,
    b,
    scale: float = 1.0,
    primal_hint=None,
    dual_hint=None,
) -> SDPProblem:
    """Validate, symmetrize, and dedupe a standard-form problem.

    Each constraint row is a dict from block index to a dense matrix; the
    symmetrized rows are stored once, as the nonzeros of the problem's
    `ConstraintStore`.  Rows are taken in input order, and a row is dropped
    when it lies within 1e-10 relative (of max(1, its norm)) of the span of
    the rows kept before it; the kept rows keep their order and are
    renumbered 0..k-1, and the dual hint is subset to them.  A dropped row
    whose right-hand side is inconsistent with the rows that imply it
    raises, since the problem is then infeasible at construction time.
    """
    dims = tuple(int(d) for d in block_dims)
    if any(d <= 0 for d in dims):
        raise SDPError(f"block dims must be positive, got {dims}")
    obj = {
        int(l): _as_sym(mat, dims[l], f"objective block {l}")
        for l, mat in objective.items()
    }
    for l in obj:
        if not 0 <= l < len(dims):
            raise SDPError(f"objective references unknown block {l}")
    constraints = list(constraints)
    m = len(constraints)
    pieces = []
    for i, con in enumerate(constraints):
        clean = {}
        for l, mat in con.items():
            l = int(l)
            if not 0 <= l < len(dims):
                raise SDPError(f"constraint {i} references unknown block {l}")
            clean[l] = _as_sym(mat, dims[l], f"constraint {i} block {l}")
        pieces.extend((i, l, col, val) for l, col, val in _nonzeros(clean))
    bvec = np.asarray(b, dtype=float).ravel()
    if len(bvec) != m:
        raise SDPError(f"b has length {len(bvec)} but there are {m} constraints")
    return _from_store(dims, obj, _coo(pieces), bvec, scale, primal_hint, dual_hint)


def _from_store(dims, obj, store, bvec, scale=1.0, primal_hint=None, dual_hint=None):
    """The problem whose rows 0..len(bvec)-1 have the nonzeros in `store`,
    once the dependent rows are dropped and the kept rows renumbered, as
    `make_problem` describes; the hints are checked here."""
    m = len(bvec)
    kept, dropped = _dedupe_rows(store, bvec, dims)
    if primal_hint is not None:
        primal_hint = tuple(
            _as_sym(blk, dims[l], f"primal hint block {l}")
            for l, blk in enumerate(primal_hint)
        )
        if len(primal_hint) != len(dims):
            raise SDPError("primal hint must cover every block")
    if dual_hint is not None:
        dual_hint = np.asarray(dual_hint, dtype=float).ravel()
        if len(dual_hint) != m:
            raise SDPError("dual hint length must match the original constraint count")
        dual_hint = dual_hint[kept]
    renumber = np.full(m, -1)
    renumber[kept] = np.arange(len(kept))
    store = store._replace(row=renumber[store.row])
    live = store.row >= 0
    return SDPProblem(
        block_dims=dims,
        objective=obj,
        store=ConstraintStore(*(a[live] for a in store)),
        b=bvec[kept],
        scale=float(scale),
        dropped=len(dropped),
        primal_hint=primal_hint,
        dual_hint=dual_hint,
    )


def _nonzeros(bm: BlockMat):
    """For each block of a block matrix, in index order: the block, and the
    flat columns and values of its nonzero entries."""
    for l in sorted(bm):
        flat = bm[l].ravel()
        col = np.flatnonzero(flat)
        yield l, col, flat[col]


def _coo(pieces) -> ConstraintStore:
    """A store from (row, block, columns, values) pieces in store order."""
    # an empty piece keeps zip and concatenate defined when there are none
    empty = (0, 0, np.zeros(0, dtype=int), np.zeros(0))
    rows, blocks, cols, vals = zip(empty, *pieces)
    counts = [len(col) for col in cols]
    return ConstraintStore(
        np.repeat(rows, counts),
        np.repeat(blocks, counts),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def _dedupe_rows(store: ConstraintStore, bvec, dims):
    m = len(bvec)
    # rows as vectorised block matrices, on only the columns that are
    # nonzero in some row: the others add nothing to any inner product
    offsets = np.cumsum([0] + [d * d for d in dims])
    used, pos = np.unique(offsets[store.block] + store.col, return_inverse=True)
    rows = np.zeros((m, len(used)))
    rows[store.row, pos] = store.val
    thresh = DEP_TOL * np.maximum(1.0, np.linalg.norm(rows, axis=1))
    # Columns of `resid` are the rows minus their projection onto the span
    # of the rows kept so far; each pass is one unpivoted QR in input order,
    # whose |R_kk| is row k's distance from the span of the rows before it.
    resid = rows.T.copy()
    kept: list[int] = []
    dropped: list[int] = []
    todo = np.arange(m)
    while len(todo):
        # distance to the kept rows only shrinks as more rows are kept, so a
        # row already within the tolerance is dropped by the greedy rule too
        near = np.linalg.norm(resid[:, todo], axis=0) <= thresh[todo]
        dropped.extend(todo[near])
        todo = todo[~near]
        if not len(todo):
            break
        q, r = np.linalg.qr(resid[:, todo], mode="reduced")
        rdiag = np.zeros(len(todo))
        rdiag[: min(r.shape)] = np.abs(np.diag(r))
        small = np.flatnonzero(rdiag <= thresh[todo])
        if not len(small):
            kept.extend(todo)
            break
        k = small[0]
        kept.extend(todo[:k])
        dropped.append(todo[k])
        rest = todo[k + 1 :]
        resid[:, rest] -= q[:, :k] @ r[:k, k + 1 :]
        todo = rest
    dropped.sort()
    if dropped:
        bscale = 1.0 + (np.max(np.abs(bvec)) if len(bvec) else 0.0)
        if kept:
            coef = np.linalg.lstsq(rows[kept].T, rows[dropped].T, rcond=None)[0]
            implied = bvec[kept] @ coef
        else:
            implied = np.zeros(len(dropped))
        for i, value in zip(dropped, implied):
            if abs(bvec[i] - value) > 1e-8 * bscale:
                raise SDPError(
                    f"constraint {i} is linearly dependent but its right-hand side "
                    f"{float(bvec[i])!r} contradicts the implied value {float(value)!r}: "
                    "problem is infeasible at construction"
                )
    return kept, dropped


def _chol_jittered(mat: np.ndarray) -> np.ndarray:
    """Inverse of the lower Cholesky factor of the Schur matrix `mat`.

    numpy has no triangular solve, so the factor is inverted once per
    iteration and applied by matrix products in `_solve_refined`.  When
    the matrix is not numerically positive definite, a growing multiple of
    its largest diagonal entry is added before factoring again.
    """
    if not np.all(np.isfinite(mat)):
        raise SDPError(
            "Newton system is not finite: the Schur complement has NaN or inf entries"
        )
    scale = max(1.0, float(np.max(np.abs(np.diag(mat))))) if len(mat) else 1.0
    eye = np.eye(len(mat))
    for jit in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        try:
            lower = np.linalg.cholesky(mat + jit * scale * eye)
        except np.linalg.LinAlgError:
            continue
        return np.linalg.inv(lower)
    raise SDPError("Newton system factorization failed: Schur complement is numerically singular")


def _solve_refined(linv: np.ndarray, mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve `mat x = rhs` with the inverse factor from `_chol_jittered`,
    then take two steps of iterative refinement against `mat` itself, which
    also undo the effect of any jitter."""
    x = linv.T @ (linv @ rhs)
    for _ in range(2):
        x = x + linv.T @ (linv @ (rhs - mat @ x))
    return x


def _max_neg_curvature(sig: np.ndarray, delta: np.ndarray) -> float:
    # largest t with  diag(sig) + t*delta >= 0  is 1/max(0, -lambda_min) of
    # the sig^{-1/2}-scaled direction
    scaled = delta / np.sqrt(np.outer(sig, sig))
    w = np.linalg.eigvalsh(0.5 * (scaled + scaled.T))
    return float(-w[0])


def _step_length(sigmas, deltas) -> float:
    worst = 0.0
    for sig, delta in zip(sigmas, deltas):
        worst = max(worst, _max_neg_curvature(sig, delta))
    return 1.0 if worst <= 0.0 else min(1.0, _STEP_BACKOFF / worst)


def solve(
    problem: SDPProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    debug: bool = False,
) -> SDPSolution:
    """Solve with an infeasible-start path-following method.

    Nesterov-Todd scaling, Mehrotra predictor-corrector, Schur complement
    per block over the rows that touch it.  Deterministic: fixed reduction
    orders, no randomization.  Builder hints on the problem are used as
    starting points when present.
    """
    dims = problem.block_dims
    nb = len(dims)
    m = problem.num_constraints
    nu = float(sum(dims))
    b = problem.b

    rows, Aflat = _row_classes(problem)
    A = [Aflat[l].reshape(len(rows[l]), d, d) for l, d in enumerate(dims)]
    C = [problem.objective.get(l, np.zeros((d, d))) for l, d in enumerate(dims)]
    c_scale = 1.0 + max((float(np.max(np.abs(cb))) for cb in C), default=0.0)
    b_scale = 1.0 + (float(np.max(np.abs(b))) if m else 0.0)

    Y = _initial_primal(problem, dims)
    y, Z = _initial_dual(problem, rows, A, C, dims, m)

    def constraint_values(blocks):
        out = np.zeros(m)
        for l in range(nb):
            out[rows[l]] += Aflat[l] @ blocks[l].ravel()
        return out

    def metrics():
        pobj = sum(float(np.vdot(C[l], Y[l])) for l in range(nb))
        dobj = float(b @ y)
        rp = b - constraint_values(Y)
        Rd = [
            C[l] - (Aflat[l].T @ y[rows[l]]).reshape(dims[l], dims[l]) - Z[l]
            for l in range(nb)
        ]
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        pinf = (float(np.max(np.abs(rp))) if m else 0.0) / b_scale
        dinf = max(float(np.max(np.abs(r))) for r in Rd) / c_scale
        mu = sum(float(np.vdot(Y[l], Z[l])) for l in range(nb)) / nu
        return pobj, dobj, rp, Rd, gap, pinf, dinf, mu

    status = "max_iter"
    it = 0
    mu0 = None
    stall = 0
    for it in range(max_iter):
        pobj, dobj, rp, Rd, gap, pinf, dinf, mu = metrics()
        if mu0 is None:
            mu0 = max(mu, 1e-300)
        if debug:
            logger.debug(
                "iter %3d  pobj %+.9e  dobj %+.9e  gap %.2e  pinf %.2e  dinf %.2e  mu %.2e",
                it, pobj, dobj, gap, pinf, dinf, mu,
            )
            if pinf <= 1e-7 and dinf <= 1e-7:
                assert pobj >= dobj - 1e-9 * (1.0 + abs(pobj)), "weak duality violated"
        if gap <= tol and pinf <= tol and dinf <= tol:
            status = "optimal"
            break
        if mu > 1e8 * mu0 or pinf > 1e10:
            status = "infeasible_suspect"
            break

        Gs, Gis, sigmas = [], [], []
        for l in range(nb):
            G, Gi, sig = _nt_factor(Y[l], Z[l])
            Gs.append(G)
            Gis.append(Gi)
            sigmas.append(sig)
        Abar = [
            np.matmul(Gs[l].T[None, :, :], np.matmul(A[l], Gs[l]))
            for l in range(nb)
        ]
        Abarflat = [Abar[l].reshape(len(rows[l]), d * d) for l, d in enumerate(dims)]
        Rdbar = [Gs[l].T @ Rd[l] @ Gs[l] for l in range(nb)]
        schur = np.zeros((m, m))
        for l in range(nb):
            schur[np.ix_(rows[l], rows[l])] += Abarflat[l] @ Abarflat[l].T
        linv = _chol_jittered(schur)

        def directions(T):
            h = rp.copy()
            for l in range(nb):
                h[rows[l]] -= Abarflat[l] @ (T[l] - Rdbar[l]).ravel()
            dy = _solve_refined(linv, schur, h)
            dZb = []
            dYb = []
            for l in range(nb):
                dz = Rdbar[l] - (Abarflat[l].T @ dy[rows[l]]).reshape(dims[l], dims[l])
                dz = 0.5 * (dz + dz.T)
                dZb.append(dz)
                dYb.append(T[l] - dz)
            return dy, dYb, dZb

        T_aff = [-np.diag(sig) for sig in sigmas]
        dy_a, dYb_a, dZb_a = directions(T_aff)
        ap_a = _step_length(sigmas, dYb_a)
        ad_a = _step_length(sigmas, dZb_a)
        mu_aff = sum(
            float(np.vdot(np.diag(sig) + ap_a * dYb_a[l], np.diag(sig) + ad_a * dZb_a[l]))
            for l, sig in enumerate(sigmas)
        ) / nu
        sig_c = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        T_corr = []
        for l, sig in enumerate(sigmas):
            corr = 0.5 * (dYb_a[l] @ dZb_a[l] + dZb_a[l] @ dYb_a[l])
            rc = sig_c * mu * np.eye(dims[l]) - np.diag(sig * sig) - corr
            T_corr.append(2.0 * rc / (sig[:, None] + sig[None, :]))
        dy, dYb, dZb = directions(T_corr)
        ap = _step_length(sigmas, dYb)
        ad = _step_length(sigmas, dZb)

        for l in range(nb):
            dY = Gs[l] @ dYb[l] @ Gs[l].T
            dZ = Gis[l].T @ dZb[l] @ Gis[l]
            Y[l] = 0.5 * ((Y[l] + ap * dY) + (Y[l] + ap * dY).T)
            Z[l] = 0.5 * ((Z[l] + ad * dZ) + (Z[l] + ad * dZ).T)
        y = y + ad * dy

        if max(ap, ad) < _STALL_STEP:
            stall += 1
            if stall >= _STALL_LIMIT:
                status = "infeasible_suspect"
                pobj, dobj, rp, Rd, gap, pinf, dinf, mu = metrics()
                break
        else:
            stall = 0
    else:
        pobj, dobj, rp, Rd, gap, pinf, dinf, mu = metrics()
        it = max_iter

    return SDPSolution(
        primal=tuple(Y),
        dual_y=y.copy(),
        dual_Z=tuple(Z),
        primal_obj=problem.scale * pobj,
        dual_obj=problem.scale * dobj,
        gap=gap,
        iterations=it,
        status=status,
        primal_infeas=pinf,
        dual_infeas=dinf,
    )


def _initial_primal(problem, dims):
    if problem.primal_hint is not None:
        Y = [blk.copy() for blk in problem.primal_hint]
    else:
        tau = max(10.0, float(np.max(np.abs(problem.b))) if len(problem.b) else 0.0)
        Y = [tau * np.eye(d) for d in dims]
    for l, d in enumerate(dims):
        w = np.linalg.eigvalsh(Y[l])
        floor = 1e-6 * max(1.0, float(w[-1]))
        if w[0] < floor:
            Y[l] = Y[l] + (floor - w[0]) * np.eye(d)
    return Y


def _row_classes(problem):
    """For each block, the indices of the rows with entries there and those
    rows' vectorised matrices stacked densely; rows that miss a block are
    never padded into it."""
    store = problem.store
    rows, stacks = [], []
    for l, d in enumerate(problem.block_dims):
        here = store.block == l
        idx = np.unique(store.row[here])
        stack = np.zeros((len(idx), d * d))
        stack[np.searchsorted(idx, store.row[here]), store.col[here]] = store.val[here]
        rows.append(idx)
        stacks.append(stack)
    return rows, stacks


def _initial_dual(problem, rows, A, C, dims, m):
    if problem.dual_hint is not None:
        y = problem.dual_hint.copy()
    else:
        y = np.zeros(m)
    Z = []
    for l, d in enumerate(dims):
        zb = C[l] - np.tensordot(y[rows[l]], A[l], axes=(0, 0))
        zb = 0.5 * (zb + zb.T)
        w = np.linalg.eigvalsh(zb)
        floor = 1e-6 * max(1.0, float(np.max(np.abs(zb))), float(w[-1]) if d else 1.0)
        if problem.dual_hint is None:
            floor = max(floor, 10.0)
        if w[0] < floor:
            zb = zb + (floor - w[0]) * np.eye(d)
        Z.append(zb)
    return y, Z


def _nt_factor(Yb: np.ndarray, Zb: np.ndarray):
    wy, Uy = np.linalg.eigh(0.5 * (Yb + Yb.T))
    wz, Uz = np.linalg.eigh(0.5 * (Zb + Zb.T))
    fy = np.maximum(wy, 1e-14 * max(1.0, float(wy[-1])))
    fz = np.maximum(wz, 1e-14 * max(1.0, float(wz[-1])))
    L = Uy * np.sqrt(fy)
    Linv = (Uy / np.sqrt(fy)).T
    R = Uz * np.sqrt(fz)
    Us, sig, VsT = np.linalg.svd(R.T @ L)
    Vs = VsT.T
    G = L @ (Vs / np.sqrt(sig))
    Gi = (Vs * np.sqrt(sig)).T @ Linv
    return G, Gi, sig


def check_certificate(
    problem: SDPProblem, solution: SDPSolution, tol: float = 1e-7
) -> CertificateReport:
    """Recompute feasibility, PSD floors, and the duality gap from scratch."""
    dims = problem.block_dims
    m = problem.num_constraints
    Y = solution.primal
    Z = solution.dual_Z
    y = solution.dual_y
    store = problem.store
    offsets = np.cumsum([0] + [d * d for d in dims])
    at = offsets[store.block] + store.col  # entry positions in the blocks laid end to end
    Yflat = np.concatenate([blk.ravel() for blk in Y])
    values = np.bincount(store.row, weights=store.val * Yflat[at], minlength=m)
    viol = float(np.max(np.abs(values - problem.b))) if m else 0.0
    Cflat = np.concatenate(
        [problem.objective.get(l, np.zeros((d, d))).ravel() for l, d in enumerate(dims)]
    )
    Zflat = Cflat - np.bincount(at, weights=y[store.row] * store.val, minlength=offsets[-1])
    dres = 0.0
    min_y = np.inf
    min_z = np.inf
    for l, d in enumerate(dims):
        zb = Zflat[offsets[l] : offsets[l + 1]].reshape(d, d)
        dres = max(dres, float(np.max(np.abs(zb - Z[l]))))
        min_y = min(min_y, float(np.linalg.eigvalsh(Y[l])[0]))
        min_z = min(min_z, float(np.linalg.eigvalsh(Z[l])[0]))
    pobj = sum(
        float(np.vdot(mat, Y[l])) for l, mat in problem.objective.items()
    )
    dobj = float(problem.b @ y) if m else 0.0
    gap = abs(pobj - dobj) / (1.0 + abs(pobj))
    b_scale = 1.0 + (float(np.max(np.abs(problem.b))) if m else 0.0)
    c_scale = 1.0 + max(
        (float(np.max(np.abs(mat))) for mat in problem.objective.values()), default=0.0
    )
    checks = {
        "primal_feasible": bool(viol <= tol * b_scale),
        "dual_feasible": bool(dres <= tol * c_scale),
        "primal_psd": bool(min_y >= -tol),
        "dual_psd": bool(min_z >= -tol),
        "gap_small": bool(gap <= tol),
    }
    return CertificateReport(
        constraint_violation=viol,
        dual_residual=dres,
        primal_min_eig=min_y,
        dual_min_eig=min_z,
        gap=gap,
        checks=checks,
        passed=all(checks.values()),
    )


def write_sdpa(problem: SDPProblem) -> str:
    """Serialize to the sparse text format; decimal repr round-trips exactly.

    Entries are the upper-triangle nonzeros of the objective (matrix 0) and
    then of the constraint store, in the store's (row, block, col) order.
    A problem without constraint rows has no right-hand-side line.
    """
    lines = [f"* scale {problem.scale!r}"]
    m = problem.num_constraints
    lines.append(str(m))
    lines.append(str(len(problem.block_dims)))
    lines.append(" ".join(str(d) for d in problem.block_dims))
    if m:
        lines.append(" ".join(repr(float(v)) for v in problem.b))

    dims = np.array(problem.block_dims)

    def emit(matno, store):
        i, j = np.divmod(store.col, dims[store.block])
        upper = i <= j
        for k, l, ii, jj, v in zip(
            *(a[upper].tolist() for a in (matno, store.block, i, j, store.val))
        ):
            lines.append(f"{k} {l + 1} {ii + 1} {jj + 1} {v!r}")

    objective = _coo((0, l, col, val) for l, col, val in _nonzeros(problem.objective))
    emit(objective.row, objective)
    emit(problem.store.row + 1, problem.store)
    return "\n".join(lines) + "\n"


def read_sdpa(text: str) -> SDPProblem:
    """Parse the sparse text format written by write_sdpa.

    Negative dims on the block line declare diagonal blocks; their entries
    must be on-diagonal and the block is stored dense.  A right-hand-side
    line follows the block line only when the constraint count is nonzero
    (blank lines are skipped, so none is needed to hold its place).  Raises
    SDPAFormatError with the offending line number on malformed input.
    """
    raw = text.splitlines()
    scale = 1.0
    body: list[tuple[int, str]] = []
    for ln, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(("*", '"')):
            parts = stripped.lstrip("*").split()
            if len(parts) == 2 and parts[0] == "scale":
                try:
                    scale = float(parts[1])
                except ValueError as exc:
                    raise SDPAFormatError(f"line {ln}: bad scale value {parts[1]!r}") from exc
            continue
        body.append((ln, stripped))

    def take(idx, what):
        if idx >= len(body):
            raise SDPAFormatError(f"unexpected end of input: missing {what}")
        return body[idx]

    ln, tok = take(0, "constraint count")
    try:
        m = int(tok.split()[0])
    except ValueError as exc:
        raise SDPAFormatError(f"line {ln}: constraint count must be an integer") from exc
    ln, tok = take(1, "block count")
    try:
        nblocks = int(tok.split()[0])
    except ValueError as exc:
        raise SDPAFormatError(f"line {ln}: block count must be an integer") from exc
    ln, tok = take(2, "block dimensions")
    fields = tok.replace(",", " ").replace("(", " ").replace(")", " ").replace("{", " ").replace("}", " ").split()
    if len(fields) != nblocks:
        raise SDPAFormatError(f"line {ln}: expected {nblocks} block dims, got {len(fields)}")
    signed_dims = []
    for f in fields:
        try:
            signed_dims.append(int(f))
        except ValueError as exc:
            raise SDPAFormatError(f"line {ln}: bad block dimension {f!r}") from exc
    if any(d == 0 for d in signed_dims):
        raise SDPAFormatError(f"line {ln}: zero block dimension")
    dims = tuple(abs(d) for d in signed_dims)
    diagonal = [d < 0 for d in signed_dims]
    b = np.zeros(0)
    first_entry = 3
    if m:
        ln, tok = take(3, "right-hand side")
        bfields = tok.replace(",", " ").split()
        if len(bfields) != m:
            raise SDPAFormatError(f"line {ln}: expected {m} right-hand-side values, got {len(bfields)}")
        try:
            b = np.array([float(f) for f in bfields])
        except ValueError as exc:
            raise SDPAFormatError(f"line {ln}: bad right-hand-side value") from exc
        first_entry = 4

    objective, store = _read_entries(body[first_entry:], m, dims, diagonal)
    return _from_store(dims, objective, store, b, scale)


def _read_entries(entries, m, dims, diagonal):
    """The objective blocks and the constraint store of the entry lines
    `entries`, (line number, text) pairs.  The constraint entries are
    mirrored into the lower triangle, explicit zeros are left out, and the
    store is sorted by (row, block, col)."""
    # entry value by (matno, blkno, i, j), in file order
    found: dict[tuple[int, int, int, int], float] = {}
    for ln, tok in entries:
        fields = tok.split()
        if len(fields) != 5:
            raise SDPAFormatError(f"line {ln}: expected 'matno blkno i j value', got {len(fields)} fields")
        try:
            matno, blkno, i, j = (int(f) for f in fields[:4])
            value = float(fields[4])
        except ValueError as exc:
            raise SDPAFormatError(f"line {ln}: bad entry field") from exc
        if not 0 <= matno <= m:
            raise SDPAFormatError(f"line {ln}: matrix number {matno} out of range 0..{m}")
        if not 1 <= blkno <= len(dims):
            raise SDPAFormatError(f"line {ln}: block number {blkno} out of range 1..{len(dims)}")
        d = dims[blkno - 1]
        if not (1 <= i <= d and 1 <= j <= d):
            raise SDPAFormatError(f"line {ln}: index ({i}, {j}) exceeds block dimension {d}")
        if i > j:
            raise SDPAFormatError(f"line {ln}: lower-triangle entry ({i}, {j}); store the upper triangle only")
        if diagonal[blkno - 1] and i != j:
            raise SDPAFormatError(f"line {ln}: off-diagonal entry in diagonal block {blkno}")
        key = (matno, blkno, i, j)
        if key in found:
            raise SDPAFormatError(f"line {ln}: duplicate entry for matrix {matno} block {blkno} ({i}, {j})")
        found[key] = value
    keys = np.array(list(found), dtype=np.int64).reshape(-1, 4)
    matno, l, i, j = (keys - [0, 1, 1, 1]).T
    val = np.fromiter(found.values(), float, len(found))
    d = np.array(dims)[l]
    objective: BlockMat = {}
    for blk in np.unique(l[matno == 0]).tolist():
        here = (matno == 0) & (l == blk)
        mat = np.zeros((dims[blk], dims[blk]))
        mat[i[here], j[here]] = val[here]
        mat[j[here], i[here]] = val[here]
        objective[blk] = mat
    upper = (matno > 0) & (val != 0)
    lower = upper & (i != j)
    row = np.concatenate([matno[upper], matno[lower]]) - 1
    block = np.concatenate([l[upper], l[lower]])
    col = np.concatenate([(i * d + j)[upper], (j * d + i)[lower]])
    value = np.concatenate([val[upper], val[lower]])
    order = np.lexsort((col, block, row))
    return objective, ConstraintStore(row[order], block[order], col[order], value[order])

