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
textbook one.

Both builders read the model's analysis, made once per model: its block
supports, SLDs, and the identifiability rule of all three bounds, whose
BoundError comes before any program is posed.  Both start from one exactly
unbiased estimator, the SLD estimator sum_k (J^-1)_kj L_k: it is the block
program's primal hint and the Holevo program's constant term.  A program
that `make_problem` cannot build is a BoundError that carries no problem.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import FISHER_TOL, SUPPORT_TOL, checked_hermitian, checked_state, derealify, hermitize, psd_sqrt, trace_abs
from .model import BoundError, StatisticalModel, Support, state_support
from .sdp_core import SDPError, SDPProblem, SDPSolution, make_problem, realified, solve

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


def _traceless_gellmann(d: int) -> list[np.ndarray]:
    ops = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            ops.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1j / np.sqrt(2)
            m[k, j] = -1j / np.sqrt(2)
            ops.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -l
        ops.append(m / np.sqrt(l * (l + 1)))
    return ops


def gellmann_basis(d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal Hermitian basis of d x d operators, identity/sqrt(d) first."""
    if d < 1:
        raise BoundError(f"basis dimension must be >= 1, got {d}")
    return (np.eye(d, dtype=complex) / np.sqrt(d), *_traceless_gellmann(d))


def _quotient_basis(sup: Support) -> list[np.ndarray]:
    """Orthonormal Hermitian basis of the operators on a state block modulo
    those supported entirely inside its kernel.

    The scaled identity, the traceless operators inside the support, and
    the support-kernel cross operators: d^2 - (d-r)^2 elements, built from
    the columns of `sup.rotation`.  On a full-rank block the rotation is the
    identity and this is gellmann_basis(d), entry for entry.
    """
    v, r = sup.rotation, sup.rank
    d = v.shape[0]
    if r == 0:
        return []
    supp, kern = v[:, :r], v[:, r:]
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)]
    ops.extend(hermitize(supp @ g @ supp.conj().T) for g in _traceless_gellmann(r))
    for i in range(r):
        for m in range(d - r):
            uv = np.outer(supp[:, i], kern[:, m].conj())
            ops.append(hermitize((uv + uv.conj().T) / np.sqrt(2)))
            ops.append(hermitize((1j * uv - 1j * uv.conj().T) / np.sqrt(2)))
    return ops


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


def _assemble_nh(blocks, ranks, s_sup, hints, pieces, b, counts) -> SDPProblem:
    """Finish a block program whose leading pin rows are already in pieces.

    The variable of block bi is [[L, X], [X^T, 1]]: n error rows of size
    r = ranks[bi], then the d_l-dim corner.  Appends the Hermiticity pins
    of the off-diagonal error blocks and the fully pinned identity corner
    to pieces (the `_entries` of the rows), b and counts, poses the
    objective sum_j Tr[S L_jj] with s_sup the support square of each state
    block, and returns the Hermitian problem `realified`.  hints[bi] holds
    the n estimator rows (r x d_l, support basis) that seed a strictly
    feasible primal point; the identity-corner duals seed the dual one.
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
    for bi, (r, (off, dl)) in enumerate(zip(ranks, blocks)):
        ops = np.array(gellmann_basis(dl))
        corner_rows.append(len(b))
        pieces.append(_entries(len(b), bi, ops, n * r, n * r))
        b.extend([np.sqrt(dl)] + [0.0] * (len(ops) - 1))
    counts["identity_corner"] = len(b) - start_len

    objective, primal = {}, []
    for bi, ((off, dl), r, xt) in enumerate(zip(blocks, ranks, hints)):
        g = np.zeros((n * r + dl, n * r + dl), dtype=complex)
        for j in range(n):
            g[j * r : (j + 1) * r, j * r : (j + 1) * r] += s_sup[bi]
        objective[bi] = g
        lam = 1.0 + 2.0 * float(np.linalg.norm(np.vstack(xt), 2)) ** 2
        y0 = np.zeros((n * r + dl, n * r + dl), dtype=complex)
        y0[: n * r, : n * r] = lam * np.eye(n * r)
        y0[n * r :, n * r :] = np.eye(dl)
        for j in range(n):
            y0[j * r : (j + 1) * r, n * r :] = xt[j]
            y0[n * r :, j * r : (j + 1) * r] = xt[j].conj().T
        primal.append(y0)
    dual = np.zeros(len(b))
    for row, (off, dl) in zip(corner_rows, blocks):
        dual[row] = -np.sqrt(dl)
    problem = _make_problem(
        [n * r + dl for r, (off, dl) in zip(ranks, blocks)],
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
    slot is r x d).  The estimator's kernel-kernel corner and the kernel
    rows of L never enter the objective or the expectation pins, and any
    PSD-feasible point of the uncompressed program compresses to one of
    equal cost, so the optimum equals the uncompressed infimum while every
    cost-free direction is gone.  On a full-rank block (r = d) this is the
    textbook layout.

    Five constraint families pin, in order: the state expectations of the
    estimators, their derivative expectations, Hermiticity of each
    estimator on the support square, Hermiticity of the off-diagonal L
    blocks, and the identity corner.  The program is built Hermitian, of
    scale 1.  An estimator slot is off the diagonal, and its adjoint mirror
    doubles the inner product, so an expectation pin Tr[A X] = c has
    right-hand side 2c; the identity-corner pin of I/sqrt(d) has sqrt(d).
    The solver gets `realified` of it, which doubles each right-hand side
    (4c and 2 sqrt(d)) and halves the scale.  Cross entries
    of a pin matrix are doubled because the compressed variable keeps only
    the support rows of each estimator: the kernel rows, which would have
    contributed the adjoint half, are implicit.
    """
    n = model.num_params
    w0 = _feasible_estimators(model)
    blocks, sups = model.analysis.blocks, model.analysis.block_supports
    if not use_blocks:
        blocks, sups = ((0, model.dim),), (model.analysis.support,)
    # a block with no support carries no pin and no cost, like the empty
    # quotient basis Holevo gives it
    blocks, sups = zip(*[(blk, sup) for blk, sup in zip(blocks, sups) if sup.rank])
    ranks = [sup.rank for sup in sups]
    rots = [sup.rotation for sup in sups]
    pins = []  # per block: rotated support rows of S, then of each dS_j
    for (off, dl), r, v in zip(blocks, ranks, rots):
        sl = slice(off, off + dl)
        rot = [v.conj().T @ dm[sl, sl] @ v for dm in model.derivs]
        rows = np.array([hermitize(v.conj().T @ model.state[sl, sl] @ v)] + rot)[:, :r, :]
        rows[:, :, r:] *= 2.0
        pins.append(rows)

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
    pieces = [_entries(0, bi, pins[bi][pin], slot * r, n * r) for bi, r in enumerate(ranks)]
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

    hints = [
        [(v.conj().T @ w[off : off + dl, off : off + dl] @ v)[:r, :] for w in w0]
        for (off, dl), r, v in zip(blocks, ranks, rots)
    ]
    s_sup = [rows[0][:, :r] for rows, r in zip(pins, ranks)]
    problem = _assemble_nh(blocks, ranks, s_sup, hints, pieces, b, counts)
    meta = NHMeta(
        num_params=n,
        dim=model.dim,
        block_offsets=tuple(off for off, dl in blocks),
        block_sizes=tuple(dl for off, dl in blocks),
        support_ranks=tuple(ranks),
        rotations=tuple(rots),
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
        xt = []
        for j in range(n):
            row = yc[j * r : (j + 1) * r, n * r :]
            xrot = np.zeros((dl, dl), dtype=complex)
            xrot[:r, :r] = hermitize(row[:, :r])
            xrot[:r, r:] = row[:, r:]
            xrot[r:, :r] = row[:, r:].conj().T
            xt.append(xrot)
            xs[j][off : off + dl, off : off + dl] = hermitize(v @ xrot @ v.conj().T)
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


def _checked_stats(model, xs, problem: SDPProblem, sol: SDPSolution, ranks) -> dict:
    """Solver stats of a bound, once its recovered estimators xs pass the
    unbiasedness check; `ranks` are the support ranks of the program's
    state blocks.  The Fisher eigenvalues are those the identifiability
    rule measured."""
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
        "support_ranks": tuple(ranks),
        "support_tol": SUPPORT_TOL,
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
    stats = _checked_stats(model, xs, problem, sol, meta.support_ranks)
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
    the weighted support rows of X_j, so the Schur complement enforces
    V >= Z with Z_jk = Tr[S X_k X_j].  The program is posed so that this
    matrix is the slack of the standard-form dual: X_j is the SLD estimator
    plus a combination of the free directions, the null space of the
    unbiasedness rows over the quotient basis, so every X is unbiased; the
    dual vector holds V's entries and the estimators' free coefficients,
    and the bound is the negated dual objective (scale -1).  The constant
    term M0 of M is the SLD estimator's, so Re(M0^dag M0) = J^-1 and the
    program starts at the SLD bound's estimator.
    It is Hermitian, one complex block of dimension n + km, and is
    realified only when written to a file (`sdp_core.write_sdpa`).
    """
    n = model.num_params
    # the SLD estimators, centered as in the block-program builder; this
    # applies the identifiability rule of all three bounds
    w0 = _feasible_estimators(model)
    blocks, sups = model.analysis.blocks, model.analysis.block_supports
    # the quotient basis of each block, on that block alone: a (len, dl, dl)
    # stack, empty on a block of rank 0
    stacks = [np.array(_quotient_basis(sup), dtype=complex).reshape(-1, dl, dl) for sup, (_, dl) in zip(sups, blocks)]
    first = np.cumsum([0] + [len(ops) for ops in stacks])
    # the unbiasedness rows over the basis coefficients: tmat[t, a] =
    # Re Tr[target_t op_a], from the targets' diagonal blocks
    targets = np.array([model.state] + list(model.derivs))
    tmat = np.concatenate([
        (targets[:, off : off + dl, off : off + dl].reshape(n + 1, -1) @ ops.transpose(0, 2, 1).reshape(-1, dl * dl).T)
        for (off, dl), ops in zip(blocks, stacks)
    ], axis=1).real
    # the model is identifiable, so the n + 1 rows of tmat are independent
    _, _, vt = np.linalg.svd(tmat)
    null = vt[n + 1 :].T  # one column per free direction
    q = null.shape[1]

    # the free directions are block-diagonal, as the basis is: each is kept
    # as its diagonal blocks, one (q, dl, dl) stack per block, formed from
    # that block's stack
    null_ops = [np.tensordot(null[a:z], ops, axes=(0, 0)) for ops, a, z in zip(stacks, first, first[1:])]
    del stacks
    # weighted support rows D^(1/2) U^dag of each block: the Gram matrix of
    # the coordinates of X reproduces Tr[X_j S X_k]
    maps = [
        (off, dl, (sup.vecs[:, sup.mask] * np.sqrt(sup.vals[sup.mask])).conj().T)
        for (off, dl), sup in zip(blocks, sups)
    ]

    def coords(pieces):  # of an operator, given as its diagonal blocks
        return np.concatenate([(rows @ x).ravel() for (_, _, rows), x in zip(maps, pieces)])

    m0 = np.stack([coords([w[off : off + dl, off : off + dl] for off, dl, _ in maps]) for w in w0], axis=1)
    km = m0.shape[0]
    dim_lmi = n + km
    null_cols = np.array([coords([ops[t] for ops in null_ops]) for t in range(q)]).reshape(q, km)

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

    # the dual hint puts tau on V's diagonal and zero on the X rows
    tau = 1.0 + 2.0 * float(np.linalg.norm(m0, 2)) ** 2
    dual0 = np.zeros(nv + n * q)
    dual0[:nv][vj == vk] = tau
    problem = _make_problem(
        [dim_lmi],
        {0: hermitize(g0)},
        tuple(np.concatenate(a) for a in zip(*pieces)),
        b,
        scale=-1.0,
        primal_hint=(np.eye(dim_lmi),),
        dual_hint=dual0,
    )
    meta = {
        "w0": tuple(w0),
        "null_ops": tuple(zip((off for off, _ in blocks), null_ops)),  # (offset, stack) per block
        "num_params": n,
        "theta": tuple(float(t) for t in model.theta),
        "support_ranks": tuple(sup.rank for sup in sups if sup.rank),
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
    # coefficients in turn; X_j is rebuilt block by block
    ys = sol.dual_y[n * (n + 1) // 2 :].reshape(n, len(meta["null_ops"][0][1]))
    eye = np.eye(model.dim, dtype=complex)
    xs = []
    for j in range(n):
        x = np.array(meta["w0"][j])
        for off, ops in meta["null_ops"]:
            at = slice(off, off + ops.shape[1])
            x[at, at] += np.tensordot(ys[j], ops, axes=1)
        xs.append(hermitize(x) + meta["theta"][j] * eye)
    stats = _checked_stats(model, xs, problem, sol, meta["support_ranks"])
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
    problem = _assemble_nh([(0, d)], [r], [s_sup], [xt], pieces, b, {})
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
