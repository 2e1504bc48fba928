"""Builders for the estimation-bound SDPs and their closed-form companions.

The main entry points translate a StatisticalModel into standard-form
problems for sdp_core: a block-embedded program whose optimum is the
attainable-MSE bound over separable measurements, and a factorized
program for the asymptotic collective bound.  Recovery helpers pull the
optimal estimator operators back out of solved problems.

Rank deficiency is the load-bearing design concern here.  When the state
has a kernel, the textbook block program has cost-free recession
directions (the kernel diagonal of the error operator), its infimum is
approached but never attained, and an interior-point method limps along
the ray.  The block program is therefore always posed with its
error-operator rows compressed onto the support of the state, which
removes every free direction while leaving the infimum unchanged.  On a
full-rank block the compression is the identity and the program is the
textbook one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import derealify, hermitize, psd_sqrt, realify, trace_abs
from .model import BoundError, StatisticalModel, Support, sld, state_support
from .sdp_core import SDPProblem, SDPSolution, make_problem, solve

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


def _resolve_blocks(model: StatisticalModel, use_blocks: bool | None = None):
    """(offset, size) of each block the programs follow."""
    if use_blocks is None:
        use_blocks = model.block_dims is not None
    if not use_blocks or model.block_dims is None:
        return [(0, model.dim)]
    offs = np.cumsum((0,) + model.block_dims[:-1]).tolist()
    return list(zip(offs, model.block_dims))


def _place(shape_offsets, entries) -> np.ndarray:
    """Assemble a Hermitian matrix from (row_block, col_block, mat) triples.

    shape_offsets maps a block index to (offset, size); the adjoint mirror
    of every off-diagonal entry is filled in automatically.
    """
    total = shape_offsets[-1][0] + shape_offsets[-1][1]
    full = np.zeros((total, total), dtype=complex)
    for bi, bj, mat in entries:
        oi, si = shape_offsets[bi]
        oj, sj = shape_offsets[bj]
        full[oi : oi + si, oj : oj + sj] += mat
        if bi != bj:
            full[oj : oj + sj, oi : oi + si] += mat.conj().T
    return full


def _feasible_estimators(model: StatisticalModel) -> list[np.ndarray]:
    """Exactly unbiased starting estimators from the SLD data.

    theta_j * P + sum_k (J^-1)_kj L_k satisfies both expectation pin
    families when the Fisher matrix is invertible; a pseudo-inverse keeps
    the hint usable (if inexact) otherwise.  P projects onto the support
    that sld found.
    """
    data = sld(model)
    fisher = data.fisher
    w = np.linalg.eigvalsh(fisher)
    if w[0] > 1e-9 * max(1.0, w[-1]):
        jinv = np.linalg.inv(fisher)
    else:
        jinv = np.linalg.pinv(fisher, rcond=1e-9)
    keep = data.support.vecs[:, data.support.mask]
    proj = hermitize(keep @ keep.conj().T)
    n = model.num_params
    return [
        hermitize(
            model.theta[j] * proj
            + sum(jinv[k, j] * data.operators[k] for k in range(n))
        )
        for j in range(n)
    ]


def _functional_rank(tmat: np.ndarray, n: int) -> int:
    """Rank of the unbiasedness system, whose rows are the state and the n
    derivative expectation functionals on the estimator space.

    Fewer than n + 1 independent rows means no family of unbiased
    estimators exists, so no program is posed.
    """
    rank = np.linalg.matrix_rank(tmat, tol=1e-10)
    if rank < n + 1:
        raise BoundError(
            "unbiasedness system is rank deficient: the state and derivative "
            "functionals are linearly dependent on the estimator space"
        )
    return rank


def _nh_layout(n: int, r: int, dl: int):
    """Slots of [[L, X], [X^T, 1]]: n error rows of size r, then the corner."""
    return [(j * r, r) for j in range(n)] + [(n * r, dl)]


def _assemble_nh(blocks, ranks, s_sup, hints, cons, b, counts) -> SDPProblem:
    """Finish a block program whose leading pin rows are already in cons.

    Appends the Hermiticity pins of the off-diagonal error blocks and the
    fully pinned identity corner to cons, b and counts, poses the
    objective sum_j Tr[S L_jj] with s_sup the support square of each state
    block, and builds the problem.  hints[bi] holds the n estimator rows
    (r x d_l, support basis) that seed a strictly feasible primal point;
    the identity-corner duals seed the dual one.
    """
    n = len(hints[0])
    layouts = [_nh_layout(n, r, dl) for r, (off, dl) in zip(ranks, blocks)]
    objective = {
        bi: realify(_place(layouts[bi], [(j, j, s_sup[bi]) for j in range(n)]))
        for bi in range(len(blocks))
    }
    sup_bases = [gellmann_basis(r) for r in ranks]
    start_len = len(cons)
    for j in range(n):
        for k in range(j + 1, n):
            for bi in range(len(blocks)):
                for op in sup_bases[bi]:
                    cons.append(
                        {bi: realify(_place(layouts[bi], [(j, k, 1j * op)]))}
                    )
                    b.append(0.0)
    counts["error_block_symmetry"] = len(cons) - start_len
    start_len = len(cons)
    corner_rows = []
    for bi, (off, dl) in enumerate(blocks):
        for a, op in enumerate(gellmann_basis(dl)):
            if a == 0:
                corner_rows.append(len(cons))
            cons.append({bi: realify(_place(layouts[bi], [(n, n, op)]))})
            b.append(2.0 * np.sqrt(dl) if a == 0 else 0.0)
    counts["identity_corner"] = len(cons) - start_len

    primal = []
    for (off, dl), r, xt in zip(blocks, ranks, hints):
        lam = 1.0 + 2.0 * float(np.linalg.norm(np.vstack(xt), 2)) ** 2
        y0 = np.zeros((n * r + dl, n * r + dl), dtype=complex)
        y0[: n * r, : n * r] = lam * np.eye(n * r)
        y0[n * r :, n * r :] = np.eye(dl)
        for j in range(n):
            y0[j * r : (j + 1) * r, n * r :] = xt[j]
            y0[n * r :, j * r : (j + 1) * r] = xt[j].conj().T
        primal.append(realify(y0))
    dual = np.zeros(len(cons))
    for row, (off, dl) in zip(corner_rows, blocks):
        dual[row] = -np.sqrt(dl)
    return make_problem(
        [2 * (n * r + dl) for r, (off, dl) in zip(ranks, blocks)],
        objective,
        cons,
        b,
        scale=0.5,
        primal_hint=tuple(primal),
        dual_hint=dual,
    )


def build_nh_sdp(
    model: StatisticalModel,
    *,
    use_blocks: bool | None = None,
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
    blocks, and the identity corner.  The realified embedding doubles
    inner products and off-diagonal placements carry an adjoint mirror, so
    an expectation pin Tr[A X] = c appears with right-hand side 4c
    (diagonal-slot pins double only once: 2c); the recorded scale of 1/2
    undoes the realification factor in reported objectives.  Cross entries
    of a pin matrix are doubled because the compressed variable keeps only
    the support rows of each estimator: the kernel rows, which would have
    contributed the adjoint half, are implicit.
    """
    n = model.num_params
    blocks = _resolve_blocks(model, use_blocks)
    sups = state_support(model.state, model.derivs, blocks)
    # a block with no support carries no pin and no cost, like the empty
    # quotient basis Holevo gives it
    blocks, sups = zip(*[(blk, sup) for blk, sup in zip(blocks, sups) if sup.rank])
    ranks = [sup.rank for sup in sups]
    rots = [sup.rotation for sup in sups]
    pins = []  # per block: rotated support rows of S, then of each dS_j
    for (off, dl), r, v in zip(blocks, ranks, rots):
        sb = model.state[off : off + dl, off : off + dl]
        d_rot = [
            v.conj().T @ dm[off : off + dl, off : off + dl] @ v for dm in model.derivs
        ]
        rows = []
        for m in [hermitize(v.conj().T @ sb @ v)] + d_rot:
            m = m[:r, :].copy()
            m[:, r:] *= 2.0
            rows.append(m)
        pins.append(rows)
    # expectation functionals on the block-diagonal estimators of the program
    tmat = [
        np.concatenate([t[o : o + dl, o : o + dl].ravel() for o, dl in blocks])
        for t in (model.state, *model.derivs)
    ]
    _functional_rank(np.array(tmat), n)
    layouts = [_nh_layout(n, r, dl) for r, (off, dl) in zip(ranks, blocks)]

    # The program variable holds the centered estimators W_j = X_j - theta_j,
    # whose quadratic form is the MSE about the true value; the recovery step
    # adds theta back so reported estimators satisfy Tr[S X_j] = theta_j.
    tr_s = float(np.trace(model.state).real)
    tr_d = [float(np.trace(dm).real) for dm in model.derivs]
    cons: list[dict[int, np.ndarray]] = []
    b: list[float] = []
    counts = {}
    # state-expectation pins: Tr[S W_j] = theta_j (1 - Tr S) = 0
    for j in range(n):
        cons.append(
            {
                bi: realify(_place(layouts[bi], [(j, n, pins[bi][0])]))
                for bi in range(len(blocks))
            }
        )
        b.append(4.0 * model.theta[j] * (1.0 - tr_s))
    counts["state_expectation"] = n
    # derivative pins: Tr[dS_j W_k] = delta_jk - theta_k Tr[dS_j]
    for k in range(n):
        for j in range(n):
            cons.append(
                {
                    bi: realify(_place(layouts[bi], [(k, n, pins[bi][1 + j])]))
                    for bi in range(len(blocks))
                }
            )
            b.append(4.0 * ((1.0 if j == k else 0.0) - model.theta[k] * tr_d[j]))
    counts["derivative_expectation"] = n * n
    # estimator Hermiticity on the support square; cross entries are free
    # complex coordinates representing a Hermitian pair, so no pin needed
    sup_bases = [gellmann_basis(r) for r in ranks]
    start_len = len(cons)
    for j in range(n):
        for bi, (off, dl) in enumerate(blocks):
            r = ranks[bi]
            for op in sup_bases[bi]:
                m = np.zeros((r, dl), dtype=complex)
                m[:, :r] = 1j * op
                cons.append({bi: realify(_place(layouts[bi], [(j, n, m)]))})
                b.append(0.0)
    counts["estimator_hermitian"] = len(cons) - start_len

    eye_full = np.eye(model.dim, dtype=complex)
    w0 = [
        x - model.theta[j] * eye_full
        for j, x in enumerate(_feasible_estimators(model))
    ]
    hints = [
        [(v.conj().T @ w[off : off + dl, off : off + dl] @ v)[:r, :] for w in w0]
        for (off, dl), r, v in zip(blocks, ranks, rots)
    ]
    s_sup = [rows[0][:, :r] for rows, r in zip(pins, ranks)]
    problem = _assemble_nh(blocks, ranks, s_sup, hints, cons, b, counts)
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


def _solve_optimal(problem: SDPProblem, tol: float, max_iter: int) -> SDPSolution:
    sol = solve(problem, tol=tol, max_iter=max_iter)
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


def _checked_stats(model, xs, problem: SDPProblem, sol: SDPSolution) -> dict:
    """Solver stats of a bound, once its recovered estimators xs pass the
    unbiasedness check."""
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
    max_iter: int = 200,
    use_blocks: bool | None = None,
) -> BoundResult:
    """Attainable-MSE bound over separable measurements, via the SDP.

    The support-compressed program has no cost-free directions, so its
    optimum is attained and the program is solved as built.  The value is
    reported only after the recovered estimators pass the unbiasedness
    check and the recovered block matrix passes the PSD check.
    """
    problem, meta = build_nh_sdp(model, use_blocks=use_blocks)
    sol = _solve_optimal(problem, tol, max_iter)
    lgrid, xs = recover_nh_estimators(meta, sol)
    stats = _checked_stats(model, xs, problem, sol)
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
    matrix is the slack of the standard-form dual: unbiasedness is solved
    affinely, the dual vector holds V's entries and the estimators' free
    coefficients, and the bound is the negated dual objective.
    """
    n = model.num_params
    blocks = _resolve_blocks(model)
    sups = state_support(model.state, model.derivs, blocks)
    ops: list[np.ndarray] = []
    for (off, dl), sup in zip(blocks, sups):
        for op in _quotient_basis(sup):
            full = np.zeros((model.dim, model.dim), dtype=complex)
            full[off : off + dl, off : off + dl] = op
            ops.append(full)
    kprime = len(ops)
    # affine solve of the unbiasedness system over the basis coefficients
    targets = [model.state] + list(model.derivs)
    tmat = np.array(
        [[np.trace(te @ op).real for op in ops] for te in targets]
    )
    rank = _functional_rank(tmat, n)
    # centered estimators W_j = X_j - theta_j, as in the block-program builder
    tr_s = float(np.trace(model.state).real)
    tr_d = [float(np.trace(dm).real) for dm in model.derivs]
    rhs = np.zeros((n + 1, n))
    for j in range(n):
        rhs[0, j] = model.theta[j] * (1.0 - tr_s)
        for k in range(n):
            rhs[1 + k, j] = (1.0 if j == k else 0.0) - model.theta[j] * tr_d[k]
    coef0, _, _, _ = np.linalg.lstsq(tmat, rhs, rcond=None)
    resid = np.max(np.abs(tmat @ coef0 - rhs))
    if resid > 1e-8:
        raise BoundError(
            f"unbiasedness system is inconsistent (residual {resid:.2e}): "
            "no unbiased estimator exists for this model"
        )
    _, sv, vt = np.linalg.svd(tmat)
    null = vt[rank:].T  # kprime x q
    q = null.shape[1]

    x0 = [
        sum(coef0[a, j] * ops[a] for a in range(kprime)) for j in range(n)
    ]
    null_ops = [
        sum(null[a, bidx] * ops[a] for a in range(kprime)) for bidx in range(q)
    ]
    # weighted support rows D^(1/2) U^dag of each block: the Gram matrix of
    # the coordinates of X reproduces Tr[X_j S X_k]
    maps = [
        (off, dl, (sup.vecs[:, sup.mask] * np.sqrt(sup.vals[sup.mask])).conj().T)
        for (off, dl), sup in zip(blocks, sups)
    ]

    def coords(x):
        return np.concatenate(
            [(rows @ x[off : off + dl, off : off + dl]).ravel() for off, dl, rows in maps]
        )

    m0 = np.stack([coords(x) for x in x0], axis=1)
    km = m0.shape[0]
    dim_lmi = n + km
    null_cols = [coords(op) for op in null_ops]

    g0 = np.zeros((dim_lmi, dim_lmi), dtype=complex)
    g0[n:, n:] = np.eye(km)
    g0[n:, :n] = m0
    g0[:n, n:] = m0.conj().T
    objective = {0: realify(hermitize(g0))}

    cons = []
    b = []
    var_index = []  # ("v", j, k) or ("x", j, bidx) in dual-vector order
    for j in range(n):
        for k in range(j, n):
            g = np.zeros((dim_lmi, dim_lmi), dtype=complex)
            g[j, k] = g[k, j] = 1.0
            cons.append({0: -realify(g)})
            b.append(-2.0 if j == k else 0.0)
            var_index.append(("v", j, k))
    for j in range(n):
        for bidx in range(q):
            g = np.zeros((dim_lmi, dim_lmi), dtype=complex)
            g[n:, j] = null_cols[bidx]
            g[j, n:] = null_cols[bidx].conj()
            cons.append({0: -realify(hermitize(g))})
            b.append(0.0)
            var_index.append(("x", j, bidx))

    tau = 1.0 + 2.0 * float(np.linalg.norm(m0, 2)) ** 2
    dual0 = np.zeros(len(cons))
    for t, key in enumerate(var_index):
        if key[0] == "v" and key[1] == key[2]:
            dual0[t] = tau
    problem = make_problem(
        [2 * dim_lmi],
        objective,
        cons,
        b,
        scale=-0.5,
        primal_hint=(np.eye(2 * dim_lmi),),
        dual_hint=dual0,
    )
    meta = {
        "var_index": tuple(var_index),
        "w0": tuple(x0),
        "null_ops": tuple(null_ops),
        "num_params": n,
        "theta": tuple(float(t) for t in model.theta),
    }
    return problem, meta


def holevo_bound(
    model: StatisticalModel,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = 200,
) -> BoundResult:
    """Collective-measurement lower bound on the MSE trace."""
    problem, meta = build_holevo_sdp(model)
    sol = _solve_optimal(problem, tol, max_iter)
    n = meta["num_params"]
    xs = []
    yvec = sol.dual_y
    eye = np.eye(model.dim, dtype=complex)
    for j in range(n):
        x = np.array(meta["w0"][j])
        for t, key in enumerate(meta["var_index"]):
            if key[0] == "x" and key[1] == j:
                x = x + yvec[t] * meta["null_ops"][key[2]]
        xs.append(hermitize(x) + meta["theta"][j] * eye)
    stats = _checked_stats(model, xs, problem, sol)
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
    max_iter: int = 200,
) -> float:
    """Operator-MSE bound with the estimators held fixed.

    Same block-matrix program as the full bound but with the expectation
    pins dropped and every estimator slot pinned to the given data; only
    the error operator remains free.  Solved in the support-compressed
    form, which prices exactly the support-visible part of each estimator
    (the kernel-kernel corner of an estimator never affects the value).
    """
    state = hermitize(np.asarray(state, dtype=complex))
    xs_in = [hermitize(np.asarray(x, dtype=complex)) for x in xs]
    d = state.shape[0]
    n = len(xs_in)
    if n < 1 or any(x.shape != (d, d) for x in xs_in):
        raise BoundError("estimators must be square matrices matching the state")
    sup = state_support(state)[0]
    r, v = sup.rank, sup.rotation
    s_sup = hermitize(v.conj().T @ state @ v)[:r, :r]
    xt = [(v.conj().T @ x @ v)[:r, :] for x in xs_in]
    layout = _nh_layout(n, r, d)
    cons = []
    b = []
    for j in range(n):
        for a in range(r):
            for c in range(d):
                for unit, target in ((1.0, xt[j][a, c].real), (1j, xt[j][a, c].imag)):
                    m = np.zeros((r, d), dtype=complex)
                    m[a, c] = unit
                    cons.append({0: realify(_place(layout, [(j, n, m)]))})
                    b.append(4.0 * target)
    problem = _assemble_nh([(0, d)], [r], [s_sup], [xt], cons, b, {})
    return _solve_optimal(problem, tol, max_iter).primal_obj


def nagaoka_explicit_two_obs(state: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> float:
    """Closed form of the two-estimator operator-MSE bound.

    Quadratic cost plus the trace norm of the state-weighted commutator;
    the square root of the state symmetrizes the commutator term so the
    trace norm sees a Hermitian matrix with the same spectrum.
    """
    state = hermitize(np.asarray(state, dtype=complex))
    x1 = hermitize(np.asarray(x1, dtype=complex))
    x2 = hermitize(np.asarray(x2, dtype=complex))
    root = psd_sqrt(state)
    quad = np.trace(state @ (x1 @ x1 + x2 @ x2)).real
    comm = trace_abs(1j * root @ (x1 @ x2 - x2 @ x1) @ root)
    return float(quad + comm)
