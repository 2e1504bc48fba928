"""Builders for the estimation-bound SDPs and their closed-form companions.

The main entry points translate a StatisticalModel into standard-form
problems for sdp_core: a block-embedded program whose optimum is the
attainable-MSE bound over separable measurements, and a factorized
program for the asymptotic collective bound.  Recovery helpers pull the
optimal estimator operators back out of solved problems.  Constraint rows
are emitted as the complex upper-triangle entries of each Hermitian block,
the entry format of `make_problem`; only objectives and hints are built as
dense matrices.  Both programs are built Hermitian.  The Holevo program
goes to the solver so, at the dimension of its LMI; the block program goes
as its real embedding, `sdp_core.realified`, of twice the dimension.

Rank deficiency is the load-bearing design concern here.  When the state
has a kernel, the textbook block program has cost-free recession
directions (the kernel diagonal of the error operator), its infimum is
approached but never attained, and an interior-point method limps along
the ray.  The block program is therefore always posed with its
error-operator rows compressed onto the support of the state, which
removes every free direction while leaving the infimum unchanged.  On a
full-rank block the compression is the identity and the program is the
textbook one.  Both programs read each block in one frame with the same
expectation pins (`_support_frames`); Holevo poses, and both recover, each
estimator by its support rows in that frame (`_row_basis`, `_lift`).  Of
the kernel, the frame keeps only the k columns that the derivatives reach,
so both programs are posed at its width r + k, not at the block size
(facial reduction on the column side: Borwein and Wolkowicz, 1981).

Both builders read the model's analysis, made once per model: its block
supports, SLDs, and the identifiability rule of all three bounds, whose
BoundError comes before any program is posed.  Both start from one exactly
unbiased estimator, the SLD estimator sum_k (J^-1)_kj L_k: it is the block
program's primal hint and the Holevo program's constant term.  A program
that `make_problem` cannot build is a BoundError that carries no problem.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    FISHER_TOL, SUPPORT_TOL, checked_hermitian, checked_state, derealify, hermitize, is_integer, psd_sqrt, trace_abs,
)
from .model import BoundError, StatisticalModel, state_support
from .sdp_core import START_FLOOR, SDPError, SDPProblem, SDPSolution, make_problem, realified, solve

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class NHMeta:
    """Layout of a built estimation-bound program, for recovery and tests."""

    num_params: int
    dim: int
    block_offsets: tuple[int, ...]
    block_sizes: tuple[int, ...]
    support_ranks: tuple[int, ...]
    rotations: tuple[np.ndarray, ...]
    group_counts: dict[str, int]
    theta: tuple[float, ...]


@dataclass(frozen=True)
class BoundResult:
    value: float
    kind: str
    X: tuple[np.ndarray, ...]
    L: np.ndarray | None
    gap: float
    solver_stats: dict
    problem: SDPProblem | None = None
    solution: SDPSolution | None = None


def gellmann_basis(d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal Hermitian basis of d x d operators: identity/sqrt(d),
    the off-diagonal elements of `_row_basis(d, d)`, then the traceless
    diagonal ones."""
    if not is_integer(d):
        raise BoundError(f"basis dimension must be an integer, got {d!r}")
    if d < 1:
        raise BoundError(f"basis dimension must be >= 1, got {d}")
    ops = [np.eye(d, dtype=complex) / np.sqrt(d), *_row_basis(d, d)[d:]]
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -l
        ops.append(m / np.sqrt(l * (l + 1)))
    return tuple(ops)


class Frame(NamedTuple):
    """A state block with support, in a frame of `width` orthonormal
    columns (`rotation`, size x width): the support, then the kernel
    columns that the derivatives reach.  Pins are the support rows
    (r x width) of S and each dS_j in it, cross entries doubled, so that
    Re <pin, x> = Tr[T X] for X with support rows x and a zero kernel
    corner."""

    offset: int
    size: int
    rank: int
    rotation: np.ndarray
    pins: np.ndarray

    @property
    def width(self) -> int:
        return self.rotation.shape[1]

    @property
    def reach(self) -> tuple[int, int, int]:
        """(r, k, size): the rank, the kernel columns kept, the block size."""
        return self.rank, self.width - self.rank, self.size

    def rows(self, op: np.ndarray) -> np.ndarray:
        """The support rows of op's diagonal block, in this frame."""
        v, at = self.rotation, slice(self.offset, self.offset + self.size)
        return (v.conj().T @ op[at, at] @ v)[: self.rank, :]


def _support_frames(model: StatisticalModel, use_blocks: bool = True) -> list[Frame]:
    """The Frame, in which both programs are posed, of each model block or
    of the whole state; a block with no support has no pin, cost or frame.

    An estimator's kernel columns x_c enter only the derivative pins
    Re <D_j, x_c>, D_j the cross part of dS_j in `Support.rotation`.  The
    part of x_c outside the row span of the D_j moves no pin and adds a PSD
    term to the cost of both programs, so the frame keeps the kernel
    columns times the right singular vectors of the stacked D_j above
    SUPPORT_TOL of the largest, and is `Support.rotation` when that drops
    nothing.  The SLD estimator's cross part, 2 S_sup^-1 D_j, lies in that
    span."""
    blocks, sups = model.analysis.blocks, model.analysis.block_supports
    if not use_blocks:
        blocks, sups = ((0, model.dim),), (model.analysis.support,)
    frames = []
    for (off, dl), sup in zip(blocks, sups):
        r, v = sup.rank, sup.rotation
        if not r:
            continue
        sl = slice(off, off + dl)
        rot = [v.conj().T @ dm[sl, sl] @ v for dm in model.derivs]
        if r < dl:
            s, vh = np.linalg.svd(np.vstack([m[:r, r:] for m in rot]), full_matrices=False)[1:]
            k = int(np.count_nonzero(s > SUPPORT_TOL * s[0]))
            if k < dl - r:
                v = np.hstack([v[:, :r], v[:, r:] @ vh[:k].conj().T])
                rot = [v.conj().T @ dm[sl, sl] @ v for dm in model.derivs]
        pins = np.array([hermitize(v.conj().T @ model.state[sl, sl] @ v)] + rot)[:, :r, :]
        pins[:, :, r:] *= 2.0
        frames.append(Frame(off, dl, r, v, pins))
    return frames


def _row_basis(r: int, width: int) -> np.ndarray:
    """Support rows, (2 r width - r^2, r, width), of a Hilbert-Schmidt
    orthonormal basis of the Hermitian operators on a frame of that width
    modulo the kernel corner: E_aa for a < r, (E_ab + E_ba)/sqrt(2) and
    i(E_ab - E_ba)/sqrt(2) for a < b, a < r."""
    a, b = np.triu_indices(width, 1)
    a, b = a[a < r], b[a < r]
    k = r + 2 * np.arange(len(a))
    ops = np.zeros((r + 2 * len(a), width, width), dtype=complex)
    ops[np.arange(r), np.arange(r), np.arange(r)] = 1.0
    ops[k, a, b] = ops[k, b, a] = 1 / np.sqrt(2)
    ops[k + 1, a, b], ops[k + 1, b, a] = 1j / np.sqrt(2), -1j / np.sqrt(2)
    return ops[:, :r, :]


def _lift(rows: np.ndarray) -> np.ndarray:
    """The Hermitian operator, in its block's frame, whose support rows are
    rows (r x width) and whose kernel corner is zero."""
    r, width = rows.shape
    x = np.zeros((width, width), dtype=complex)
    x[:r], x[r:, :r] = rows, rows[:, r:].conj().T
    x[:r, :r] = hermitize(rows[:, :r])
    return x


def _entries(first: int, block: int, stack: np.ndarray, oi, oj):
    """Constraint entries of matrices stack[k] placed at (oi[k], oj[k]) of
    a Hermitian block, in row first + k: (row, block, i, j, z) arrays of the
    nonzeros on or above the diagonal, whose adjoint mirror is implied.  oi
    and oj may be scalars."""
    k, a, c = np.nonzero(stack)
    i = np.broadcast_to(oi, len(stack))[k] + a
    j = np.broadcast_to(oj, len(stack))[k] + c
    up = i <= j
    return first + k[up], np.full(np.count_nonzero(up), block), i[up], j[up], stack[k, a, c][up]


def _feasible_estimators(model: StatisticalModel) -> list[np.ndarray]:
    """Exactly unbiased starting estimators from the model's analysis,
    centered: W_j = X_j - theta_j.

    X_j = theta_j * P + sum_k (J^-1)_kj L_k satisfies both expectation pin
    families, P the projector onto the support of the state.  J^-1 comes
    from `Analysis.fisher_inverse`, so a model that no bound identifies
    raises its BoundError here, before any program is posed.
    """
    data = model.analysis
    jinv = data.fisher_inverse()
    keep = data.support.vecs[:, data.support.mask]
    proj = hermitize(keep @ keep.conj().T)
    eye = np.eye(model.dim, dtype=complex)
    n = model.num_params
    return [
        hermitize(model.theta[j] * proj + sum(jinv[k, j] * data.operators[k] for k in range(n)))
        - model.theta[j] * eye
        for j in range(n)
    ]


def _make_problem(*args, **kwargs) -> SDPProblem:
    """`make_problem`, whose SDPError is a BoundError with no problem."""
    try:
        return make_problem(*args, **kwargs)
    except SDPError as exc:
        raise BoundError(f"program failed to build: {exc}") from exc


def _assemble_nh(widths, ranks, s_sup, hints, pieces, b, counts) -> SDPProblem:
    """Finish a block program whose leading pin rows are already in pieces.

    The variable of block bi is [[L, X], [X^T, 1]]: n error rows of size
    r = ranks[bi], then the corner of its frame's width w = widths[bi].
    Appends the Hermiticity pins of the off-diagonal error blocks and the
    fully pinned identity corner to pieces (the `_entries` of the rows), b
    and counts, poses the objective sum_j Tr[S L_jj] with s_sup the support
    square of each state block, and returns the Hermitian problem
    `realified`.  hints[bi] holds the n estimator rows (r x w, support
    basis) that seed a strictly feasible primal point; the identity-corner
    duals seed the dual one.
    """
    n = len(hints[0])
    sup_bases = [1j * np.array(gellmann_basis(r)) for r in ranks]
    start_len = len(b)
    for j in range(n):
        for k in range(j + 1, n):
            for bi, r in enumerate(ranks):
                pieces.append(_entries(len(b), bi, sup_bases[bi], j * r, k * r))
                b.extend([0.0] * len(sup_bases[bi]))
    counts["error_block_symmetry"] = len(b) - start_len
    start_len = len(b)
    corner_rows = []
    for bi, (r, w) in enumerate(zip(ranks, widths)):
        ops = np.array(gellmann_basis(w))
        corner_rows.append(len(b))
        pieces.append(_entries(len(b), bi, ops, n * r, n * r))
        b.extend([np.sqrt(w)] + [0.0] * (len(ops) - 1))
    counts["identity_corner"] = len(b) - start_len

    objective, primal = {}, []
    for bi, (w, r, xt) in enumerate(zip(widths, ranks, hints)):
        g = np.zeros((n * r + w, n * r + w), dtype=complex)
        for j in range(n):
            g[j * r : (j + 1) * r, j * r : (j + 1) * r] += s_sup[bi]
        objective[bi] = g
        lam = 1.0 + 2.0 * float(np.linalg.norm(np.vstack(xt), 2)) ** 2
        y0 = np.zeros((n * r + w, n * r + w), dtype=complex)
        y0[: n * r, : n * r] = lam * np.eye(n * r)
        y0[n * r :, n * r :] = np.eye(w)
        for j in range(n):
            y0[j * r : (j + 1) * r, n * r :] = xt[j]
            y0[n * r :, j * r : (j + 1) * r] = xt[j].conj().T
        primal.append(y0)
    dual = np.zeros(len(b))
    for row, w in zip(corner_rows, widths):
        dual[row] = -np.sqrt(w)
    problem = _make_problem(
        [n * r + w for r, w in zip(ranks, widths)],
        objective,
        tuple(np.concatenate(a) for a in zip(*pieces)),
        b,
        primal_hint=tuple(primal),
        dual_hint=dual,
    )
    return realified(problem)


def build_nh_sdp(
    model: StatisticalModel,
    *,
    use_blocks: bool = True,
) -> tuple[SDPProblem, NHMeta]:
    """Standard-form program for the separable-measurement MSE bound.

    Variable per model block: [[L, X], [X^T, 1]] with the error rows
    restricted to the support of the state block (L is nr x nr, each X
    slot is r x w, w = r + k the width of the block's frame: its support
    and the k kernel columns that the derivatives reach, `_support_frames`).
    The estimator's kernel-kernel corner and the kernel rows of L never
    enter the objective or the expectation pins, and any PSD-feasible point
    of the uncompressed program compresses to one of equal or lower cost,
    so the optimum equals the uncompressed infimum while every cost-free
    direction is gone.  On a full-rank block (r = w = d) this is the
    textbook layout.

    Five constraint families pin, in order: the state expectations of the
    estimators, their derivative expectations, Hermiticity of each
    estimator on the support square, Hermiticity of the off-diagonal L
    blocks, and the identity corner.  The program is built Hermitian, of
    scale 1.  An estimator slot is off the diagonal, and its adjoint mirror
    doubles the inner product, so an expectation pin Tr[A X] = c has
    right-hand side 2c; the identity-corner pin of I/sqrt(w) has sqrt(w).
    The solver gets `realified` of it, which doubles each right-hand side
    (4c and 2 sqrt(w)) and halves the scale.  Cross entries
    of a pin matrix are doubled because the compressed variable keeps only
    the support rows of each estimator: the kernel rows, which would have
    contributed the adjoint half, are implicit.
    """
    n = model.num_params
    w0 = _feasible_estimators(model)
    frames = _support_frames(model, use_blocks)
    ranks = [f.rank for f in frames]

    # The program variable holds the centered estimators W_j = X_j - theta_j,
    # whose quadratic form is the MSE about the true value; the recovery step
    # adds theta back so reported estimators satisfy Tr[S X_j] = theta_j.
    tr_s = float(np.trace(model.state).real)
    tr_d = [float(np.trace(dm).real) for dm in model.derivs]
    # state-expectation pins: Tr[S W_j] = theta_j (1 - Tr S) = 0, in row j;
    # derivative pins: Tr[dS_j W_k] = delta_jk - theta_k Tr[dS_j], in row
    # n + k n + j.  The pin on W_k sits in slot (k, n) of each block.
    slot = np.concatenate([np.arange(n), np.repeat(np.arange(n), n)])
    pin = np.concatenate([np.zeros(n, dtype=int), np.tile(np.arange(1, n + 1), n)])
    pieces = [_entries(0, bi, f.pins[pin], slot * f.rank, n * f.rank) for bi, f in enumerate(frames)]
    b = [2.0 * model.theta[j] * (1.0 - tr_s) for j in range(n)]
    b.extend(
        2.0 * ((1.0 if j == k else 0.0) - model.theta[k] * tr_d[j])
        for k in range(n)
        for j in range(n)
    )
    counts = {"state_expectation": n, "derivative_expectation": n * n}
    # estimator Hermiticity on the support square; cross entries are free
    # complex coordinates representing a Hermitian pair, so no pin needed
    sup_bases = [1j * np.array(gellmann_basis(r)) for r in ranks]
    start_len = len(b)
    for j in range(n):
        for bi, r in enumerate(ranks):
            pieces.append(_entries(len(b), bi, sup_bases[bi], j * r, n * r))
            b.extend([0.0] * len(sup_bases[bi]))
    counts["estimator_hermitian"] = len(b) - start_len

    hints = [[f.rows(w) for w in w0] for f in frames]
    s_sup = [f.pins[0][:, : f.rank] for f in frames]
    problem = _assemble_nh([f.width for f in frames], ranks, s_sup, hints, pieces, b, counts)
    meta = NHMeta(
        num_params=n,
        dim=model.dim,
        block_offsets=tuple(f.offset for f in frames),
        block_sizes=tuple(f.size for f in frames),
        support_ranks=tuple(ranks),
        rotations=tuple(f.rotation for f in frames),
        group_counts=counts,
        theta=tuple(float(t) for t in model.theta),
    )
    return problem, meta


def recover_nh_estimators(
    meta: NHMeta, solution: SDPSolution
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Pull (L, X) back out of a solved program.

    Returns the n x n grid of d x d error-operator blocks and the n
    estimator matrices, assembled over the model's block structure.  The
    estimators are lifted to Hermitian operators with a zero kernel-kernel
    corner, and L is completed so that the block matrix [[L, X], [X^T, 1]]
    stays PSD: the diagonal L blocks are Hermitian, while the off-diagonal
    blocks keep a skew remainder in their kernel-cross entries (the
    textbook program only attains full Hermiticity there in the limit of
    infinite kernel weight).  On a full-rank block the completion adds
    nothing beyond rounding.
    """
    n = meta.num_params
    d = meta.dim
    lgrid = np.zeros((n, n, d, d), dtype=complex)
    xs = [np.zeros((d, d), dtype=complex) for _ in range(n)]
    for bi, (off, dl) in enumerate(zip(meta.block_offsets, meta.block_sizes)):
        yc = derealify(solution.primal[bi])
        r = meta.support_ranks[bi]
        v = meta.rotations[bi]
        xt = [_lift(yc[j * r : (j + 1) * r, n * r :]) for j in range(n)]
        for j in range(n):
            xs[j][off : off + dl, off : off + dl] = hermitize(v @ xt[j] @ v.conj().T)
        for j in range(n):
            for k in range(n):
                ljk = yc[j * r : (j + 1) * r, k * r : (k + 1) * r]
                lkj = yc[k * r : (k + 1) * r, j * r : (j + 1) * r]
                lsup = 0.5 * (ljk + lkj.conj().T)
                lrot = xt[j] @ xt[k]
                lrot[:r, :r] += lsup - xt[j][:r] @ xt[k][:r].conj().T
                lgrid[j, k, off : off + dl, off : off + dl] = v @ lrot @ v.conj().T
    for j in range(n):
        for k in range(n):
            sym = 0.5 * (lgrid[j, k] + lgrid[k, j].conj().T)
            lgrid[j, k] = sym
            lgrid[k, j] = sym.conj().T
    # solved in centered variables; shift back so Tr[S X_j] = theta_j, with
    # the congruence completion keeping [[L, X], [X^T, 1]] >= 0 exactly
    ws = [hermitize(x) for x in xs]
    eye = np.eye(d, dtype=complex)
    th = meta.theta
    for j in range(n):
        for k in range(n):
            lgrid[j, k] = (
                lgrid[j, k] + th[j] * ws[k] + th[k] * ws[j] + th[j] * th[k] * eye
            )
    return lgrid, tuple(w + th[j] * eye for j, w in enumerate(ws))


def _solve_optimal(problem: SDPProblem, tol: float) -> SDPSolution:
    """The optimal solve of `problem`; any other outcome, a solver error
    included, is a BoundError that carries the problem."""
    try:
        sol = solve(problem, tol=tol)
    except SDPError as exc:
        raise BoundError(f"solver failed: {exc}", problem=problem) from exc
    if sol.status != "optimal":
        raise BoundError(
            f"solver finished with status {sol.status!r} "
            f"(gap {sol.gap:.2e}, iterations {sol.iterations})",
            problem=problem,
        )
    return sol


def _unbiasedness_errors(model: StatisticalModel, xs) -> float:
    worst = 0.0
    for j, x in enumerate(xs):
        worst = max(worst, abs(np.trace(model.state @ x).real - model.theta[j]))
        for k, dm in enumerate(model.derivs):
            target = 1.0 if j == k else 0.0
            worst = max(worst, abs(np.trace(dm @ x).real - target))
    return worst


def _checked_stats(model, xs, problem: SDPProblem, sol: SDPSolution, reach) -> dict:
    """Solver stats of a bound, once its recovered estimators xs pass the
    unbiasedness check; `reach` holds the `Frame.reach` (r, k, d_l) of the
    program's state blocks, whose kernel columns were cut at SUPPORT_TOL of
    the largest singular value.  The Fisher eigenvalues are those the
    identifiability rule measured."""
    ub_err = _unbiasedness_errors(model, xs)
    if ub_err > 1e-6:
        raise BoundError(
            f"recovered estimators violate unbiasedness by {ub_err:.2e}",
            problem=problem,
        )
    return {
        "iterations": sol.iterations,
        "status": sol.status,
        "primal_infeas": sol.primal_infeas,
        "dual_infeas": sol.dual_infeas,
        "constraints": problem.num_constraints,
        "sdp_block_dims": problem.block_dims,
        "unbiasedness_error": ub_err,
        "support_ranks": tuple(r for r, _, _ in reach),
        "support_tol": SUPPORT_TOL,
        "kernel_reach": {"frames": tuple(reach), "relative_cut": SUPPORT_TOL},
        "fisher_tol": FISHER_TOL,
        "fisher_eig_min": float(model.analysis.fisher_eigs[0]),
        "fisher_eig_max": float(model.analysis.fisher_eigs[-1]),
        "dropped_rows": problem.dropped,
        "newton_jitter": sol.newton_jitter,
    }


def _schur_floor(lgrid, xs, n, d) -> float:
    big = np.zeros(((n + 1) * d, (n + 1) * d), dtype=complex)
    for j in range(n):
        big[j * d : (j + 1) * d, n * d :] = xs[j]
        big[n * d :, j * d : (j + 1) * d] = xs[j].conj().T
        for k in range(n):
            big[j * d : (j + 1) * d, k * d : (k + 1) * d] = lgrid[j, k]
    big[n * d :, n * d :] = np.eye(d)
    big = 0.5 * (big + big.conj().T)
    return float(np.linalg.eigvalsh(big)[0])


def nagaoka_hayashi_bound(
    model: StatisticalModel,
    *,
    tol: float = DEFAULT_TOL,
    use_blocks: bool = True,
) -> BoundResult:
    """Attainable-MSE bound over separable measurements, via the SDP.

    The support-compressed program has no cost-free directions, so its
    optimum is attained and the program is solved as built.  The value is
    reported only after the recovered estimators pass the unbiasedness
    check and the recovered block matrix passes the PSD check.
    """
    problem, meta = build_nh_sdp(model, use_blocks=use_blocks)
    sol = _solve_optimal(problem, tol)
    lgrid, xs = recover_nh_estimators(meta, sol)
    reach = [(r, v.shape[1] - r, dl) for r, v, dl in zip(meta.support_ranks, meta.rotations, meta.block_sizes)]
    stats = _checked_stats(model, xs, problem, sol, reach)
    floor = _schur_floor(lgrid, xs, meta.num_params, meta.dim)
    if floor < -1e-7:
        raise BoundError(
            f"recovered block matrix has eigenvalue {floor:.2e}",
            problem=problem,
        )
    stats["schur_min_eig"] = floor
    return BoundResult(
        value=sol.primal_obj,
        kind="nagaoka_hayashi",
        X=xs,
        L=lgrid,
        gap=sol.gap,
        solver_stats=stats,
        problem=problem,
        solution=sol,
    )


def build_holevo_sdp(model: StatisticalModel):
    """Factorized program for the collective-measurement bound.

    Minimizes trace(V) over real symmetric V and unbiased Hermitian X
    subject to [[V, M^dag], [M, 1]] >= 0, where M's j-th column collects
    R^dag x_j, x_j the support rows (r x w, w = r + k the frame's width)
    of X_j in the block program's frames and R R^dag the support square of
    S, so the Schur complement enforces
    V >= Z with Z_jk = Tr[S X_k X_j].  This matrix is the slack of the
    standard-form dual: X_j is the SLD estimator plus a combination of the
    free directions, the null space of the block program's expectation pins
    over a basis of support rows, so every X is unbiased; the dual vector
    holds V's entries and the estimators' free coefficients, and the bound
    is the negated dual objective (scale -1).  The constant term M0 of M is
    the SLD estimator's, so Re Z0 = J^-1 with Z0 = M0^dag M0.  The hints
    start both sides there, each exactly feasible: V0 = Re Z0 + cI with zero
    free coefficients, and Y0 = [[I, -M0^dag], [-M0, M0 M0^dag + cI]], whose
    free rows hold as the SLD estimator is optimal; c = 2 max(||Im Z0||_2,
    1e-4 Tr Re Z0 / n).  Where Im Z0 = 0, Y0 times the dual slack is cI.  A
    Y0 whose least eigenvalue is below START_FLOOR of its largest falls back
    to Y = I and V = tau I, tau = 1 + 2||M0||^2; meta records `start`
    ("centred" or "identity") and `start_c`.
    It is Hermitian, one complex block of dimension n + km, km the sum of
    r w over the frames, and is realified only when written to a file
    (`sdp_core.write_sdpa`).
    """
    n = model.num_params
    # the SLD estimators, centered as in the block-program builder; this
    # applies the identifiability rule of all three bounds
    w0 = _feasible_estimators(model)
    frames = _support_frames(model)
    bases = [_row_basis(f.rank, f.width) for f in frames]
    first = np.cumsum([0] + [len(e) for e in bases])
    # the unbiasedness rows over the basis coefficients: tmat[t, a] =
    # Re <pin_t, e_a> = Tr[target_t E_a], E_a the lifted basis element
    tmat = np.concatenate([
        (f.pins.reshape(n + 1, -1).conj() @ e.reshape(len(e), -1).T).real for f, e in zip(frames, bases)
    ], axis=1)
    # the model is identifiable, so the n + 1 rows of tmat are independent
    _, _, vt = np.linalg.svd(tmat)
    null = vt[n + 1 :]  # one row per free direction
    # each free direction by its support rows, one (q, r, width) stack per block
    null_rows = [np.tensordot(null[:, a:z], e, axes=1) for e, a, z in zip(bases, first, first[1:])]
    # R^dag of each block: the Gram matrix of the coordinates R^dag x of
    # support rows reproduces Tr[X_j S X_k]
    weights = [np.linalg.cholesky(f.pins[0][:, : f.rank]).conj().T for f in frames]

    def coords(stacks):  # of a stack of operators, given by their support rows per block
        return np.concatenate([(w @ x).reshape(len(x), x.shape[1] * x.shape[2]) for w, x in zip(weights, stacks)], axis=1)

    m0 = coords([np.array([f.rows(w) for w in w0]) for f in frames]).T
    km = m0.shape[0]
    dim_lmi = n + km
    null_cols = coords(null_rows)
    q = len(null_cols)

    g0 = np.zeros((dim_lmi, dim_lmi), dtype=complex)
    g0[n:, n:] = np.eye(km)
    g0[n:, :n] = m0
    g0[:n, n:] = m0.conj().T

    # row (j, k) of V is -1 at (j, k) and its mirror; the rows of X_j put
    # minus each free direction's coordinates in row j of the M^dag slot
    vj, vk = np.triu_indices(n)
    nv = len(vj)
    pieces = [(np.arange(nv), np.zeros(nv, dtype=int), vj, vk, -np.ones(nv))]
    b = [-1.0 if j == k else 0.0 for j, k in zip(vj, vk)]
    border = -null_cols.conj()[:, None, :]
    for j in range(n):
        pieces.append(_entries(nv + j * q, 0, border, j, n))
    b.extend([0.0] * (n * q))

    # the hints: the centred start at the SLD estimator, else the identity
    z0 = hermitize(m0.conj().T @ m0)
    c = 2.0 * max(float(np.linalg.norm(z0.imag, 2)), 1e-4 * float(np.trace(z0.real)) / n)
    y0 = hermitize(np.block([[np.eye(n), -m0.conj().T], [-m0, m0 @ m0.conj().T + c * np.eye(km)]]))
    w = np.linalg.eigvalsh(y0)
    dual0 = np.zeros(nv + n * q)
    if w[0] >= START_FLOOR * w[-1]:
        start = "centred"
        dual0[:nv] = z0.real[vj, vk] + c * (vj == vk)
    else:  # Y0 too near singular for the solver's floor: Y = I, V = tau I
        start, y0 = "identity", np.eye(dim_lmi)
        dual0[:nv][vj == vk] = 1.0 + 2.0 * float(np.linalg.norm(m0, 2)) ** 2
    problem = _make_problem(
        [dim_lmi],
        {0: hermitize(g0)},
        tuple(np.concatenate(a) for a in zip(*pieces)),
        b,
        scale=-1.0,
        primal_hint=(y0,),
        dual_hint=dual0,
    )
    meta = {
        "w0": tuple(w0),
        "frames": tuple(frames),
        "null_rows": tuple(null_rows),  # (q, r, width) support rows per frame
        "num_params": n,
        "theta": tuple(float(t) for t in model.theta),
        "start": start,
        "start_c": c,
    }
    return problem, meta


def holevo_bound(
    model: StatisticalModel,
    *,
    tol: float = DEFAULT_TOL,
) -> BoundResult:
    """Collective-measurement lower bound on the MSE trace."""
    problem, meta = build_holevo_sdp(model)
    sol = _solve_optimal(problem, tol)
    n = meta["num_params"]
    # the dual vector holds V's upper triangle, then each X_j's q free
    # coefficients in turn; X_j is rebuilt block by block, lifted from
    # support rows through each frame
    ys = sol.dual_y[n * (n + 1) // 2 :].reshape(n, len(meta["null_rows"][0]))
    eye = np.eye(model.dim, dtype=complex)
    xs = []
    for j in range(n):
        x = np.array(meta["w0"][j])
        for f, rows in zip(meta["frames"], meta["null_rows"]):
            at, v = slice(f.offset, f.offset + f.size), f.rotation
            x[at, at] += v @ _lift(np.tensordot(ys[j], rows, axes=1)) @ v.conj().T
        xs.append(hermitize(x) + meta["theta"][j] * eye)
    stats = _checked_stats(model, xs, problem, sol, [f.reach for f in meta["frames"]])
    stats["start"], stats["start_c"] = meta["start"], meta["start_c"]
    return BoundResult(
        value=sol.dual_obj,
        kind="holevo",
        X=tuple(xs),
        L=None,
        gap=sol.gap,
        solver_stats=stats,
        problem=problem,
        solution=sol,
    )


def nh_u_bound(
    state: np.ndarray,
    xs,
    *,
    tol: float = DEFAULT_TOL,
) -> float:
    """Operator-MSE bound with the estimators held fixed.

    Same block-matrix program as the full bound but with the expectation
    pins dropped and every estimator slot pinned to the given data; only
    the error operator remains free.  Solved in the support-compressed
    form, which prices exactly the support-visible part of each estimator
    (the kernel-kernel corner of an estimator never affects the value).
    The state must pass the rules of a model's state, and each estimator
    must be finite and Hermitian of the state's shape; BoundError otherwise.
    """
    d = len(state) if np.ndim(state) else 0
    state = checked_state(state, d, BoundError)
    xs_in = [checked_hermitian(x, d, f"estimator {j}", BoundError) for j, x in enumerate(xs)]
    if not xs_in:
        raise BoundError("at least one estimator is required")
    n = len(xs_in)
    sup = state_support(state)[0]
    r, v = sup.rank, sup.rotation
    s_sup = hermitize(v.conj().T @ state @ v)[:r, :r]
    xt = [(v.conj().T @ x @ v)[:r, :] for x in xs_in]
    # one row per real and imaginary part of each entry (a, c) of X_j's
    # slot, which sits at offset (j r, n r)
    j, a, c = (np.repeat(x.ravel(), 2) for x in np.indices((n, r, d)))
    rows = np.arange(len(j))
    pieces = [(rows, np.zeros_like(rows), j * r + a, n * r + c, np.tile([1.0, 1j], n * r * d))]
    xa = np.array(xt)
    b = (2.0 * np.stack([xa.real, xa.imag], axis=-1).ravel()).tolist()
    problem = _assemble_nh([d], [r], [s_sup], [xt], pieces, b, {})
    return _solve_optimal(problem, tol).primal_obj


def nagaoka_explicit_two_obs(state: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> float:
    """Closed form of the two-estimator operator-MSE bound.

    Quadratic cost plus the trace norm of the state-weighted commutator;
    the square root of the state symmetrizes the commutator term so the
    trace norm sees a Hermitian matrix with the same spectrum.  The inputs
    follow the rules of `nh_u_bound`; BoundError otherwise.
    """
    d = len(state) if np.ndim(state) else 0
    state = checked_state(state, d, BoundError)
    x1, x2 = (checked_hermitian(x, d, f"estimator {j}", BoundError) for j, x in enumerate((x1, x2)))
    root = psd_sqrt(state)
    quad = np.trace(state @ (x1 @ x1 + x2 @ x2)).real
    comm = trace_abs(1j * root @ (x1 @ x2 - x2 @ x1) @ root)
    return float(quad + comm)
