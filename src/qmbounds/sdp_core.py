"""Standard-form SDP: problem/solution types, a primal-dual interior-point
solver with Nesterov-Todd scaling and Mehrotra correction, certificate
checks, and sparse text-format round-trip I/O.

The primal problem is  minimize <C, Y>  subject to  <A_i, Y> = b_i, Y >= 0
with Y block-diagonal; the dual is  maximize b.y  subject to
Z = C - sum_i y_i A_i >= 0.  A program is real, its blocks real symmetric,
or Hermitian, its blocks complex Hermitian; one code path solves both, with
the inner product <A, Y> = Re Tr(A Y).  Reported objectives carry the
problem's `scale` factor.

Constraint rows have one input format, the entry lines of the sparse text
format: (row, block, i, j, value) for the upper-triangle nonzeros of each
A_i, under one set of rules (`_check_entries`).  Builders and `read_sdpa`
hand these to `make_problem`, which keeps them once, in a `ConstraintStore`.
The text format is real: `write_sdpa` writes a Hermitian program as its
real embedding, `realified`, which `read_sdpa` reads as a real one.  The
writer gives each float as its Python `repr`, and the entries in store
order, so a program's text is byte-stable; the reader numbers lines as
`str.splitlines` does.
`hermitian_form` gives back the Hermitian program of such a file, of half
the block dimension, when the file reproduces its embedding exactly; the
`solve-sdp` command solves that.

The solver forms each block's Schur complement by one of two formulas,
picked by cost: from the congruences G^H A_i G, each formed on the rows
where A_i is nonzero, or from factors that a small cover of each row gives
(see `solve`).

All dense linear algebra goes through numpy's LAPACK.  The Newton matrix
is factored whole, by one Cholesky factor, and solved with the inverse of
that factor, formed by 2 x 2 blocks in matrix products.  Row dedupe keeps
every row when a Cholesky factor of the rows' scaled Gram matrix proves
them independent, and otherwise decides by numpy's QR.  No second BLAS
library is loaded, so the process has one BLAS thread pool, not two that
compete for the same cores.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .linalg import checked_hermitian, is_integer, is_number, realify

DEP_TOL = 1e-10
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
_STEP_BACKOFF = 0.98
_PROGRESS = 0.5
_STALL_LIMIT = 10
# a starting block's least eigenvalue is lifted to at least this much of
# its largest (`_initial_primal`, `_initial_dual`)
START_FLOOR = 1e-6

BlockMat = dict[int, np.ndarray]


class SDPError(RuntimeError):
    """Construction or solver failure (reported, never silent)."""


class SDPAFormatError(ValueError):
    """Malformed problem text; message carries the offending line."""


class ConstraintStore(NamedTuple):
    """Constraint matrices in coordinate form, as in the sparse text format
    but with both triangles: entry k says that row `row[k]` has value
    `val[k]` at flat position `col[k]` = i*d + j of block `block[k]`.  It
    holds only nonzeros, sorted by (row, block, col).  `val` is complex
    exactly when the program is Hermitian."""

    row: np.ndarray
    block: np.ndarray
    col: np.ndarray
    val: np.ndarray


@dataclass(frozen=True)
class SDPProblem:
    """Standard-form data over a block-diagonal PSD variable.

    `objective` is block-sparse: a dict from block index to a dense
    symmetric (Hermitian) matrix of that block's dimension.  The constraint
    matrices live once, in `store`, numbered 0..num_constraints-1.  `dropped` counts
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
    newton_jitter: float = 0.0


@dataclass(frozen=True)
class CertificateReport:
    constraint_violation: float
    dual_residual: float
    primal_min_eig: float
    dual_min_eig: float
    gap: float
    checks: dict[str, bool] = field(default_factory=dict)
    passed: bool = False


def _bincount(index, weights, size) -> np.ndarray:
    """`np.bincount` of real or complex weights."""
    if weights.dtype.kind == "c":
        return _bincount(index, weights.real, size) + 1j * _bincount(index, weights.imag, size)
    return np.bincount(index, weights=weights, minlength=size)


def _real_vector(v, what: str) -> np.ndarray:
    """`v` as a flat float array, once it is real and finite; SDPError
    naming it as `what` otherwise."""
    arr = np.asarray(v)
    if np.iscomplexobj(arr):
        raise SDPError(f"{what} is complex")
    arr = np.asarray(arr, dtype=float).ravel()
    if not np.all(np.isfinite(arr)):
        raise SDPError(f"{what} has non-finite values")
    return arr


def make_problem(
    block_dims,
    objective: BlockMat,
    entries,
    b,
    scale: float = 1.0,
    primal_hint=None,
    dual_hint=None,
) -> SDPProblem:
    """Validate, store, and dedupe a standard-form problem.

    The constraint rows come as the entry lines of the sparse text format,
    0-based: `entries` is (row, block, i, j, value) arrays, one element per
    upper-triangle entry (i <= j) of a symmetric row matrix, rows numbered
    0..len(b)-1.  Each (row, block, i, j) appears at most once.  When any
    value, objective block or primal hint is complex, the program is
    Hermitian: each row matrix is Hermitian, its diagonal real, and its
    lower triangle the conjugate of the upper.  The entries are mirrored
    into the lower triangle, zeros are left out, and the rest is sorted by
    (row, block, col) into the problem's `ConstraintStore`.  A row is
    dropped when it lies within 1e-10 relative (of max(1, its norm)) of the
    span of the rows kept before it, rows being vectors of the real and
    imaginary parts of their entries, with the inner product Re Tr; the kept
    rows keep their order and are renumbered 0..k-1, and the dual hint is
    subset to them.  A dropped row whose right-hand side is inconsistent
    with the rows that imply it raises, since the problem is then
    infeasible at construction time.  `b` and the dual hint must be real
    and finite, and the primal hint must have one block per block; each
    objective and hint block passes `linalg.checked_hermitian`.
    """
    dims = tuple(int(d) for d in block_dims)
    if any(d <= 0 for d in dims):
        raise SDPError(f"block dims must be positive, got {dims}")
    if not math.isfinite(scale):
        raise SDPError(f"scale must be finite, got {scale!r}")
    for l in objective:
        if not 0 <= int(l) < len(dims):
            raise SDPError(f"objective references unknown block {l}")
    data = (entries[4], *objective.values(), *(() if primal_hint is None else primal_hint))
    dtype = complex if any(np.iscomplexobj(a) for a in data) else float
    obj = {
        int(l): checked_hermitian(mat, dims[int(l)], f"objective block {l}", SDPError, dtype)
        for l, mat in objective.items()
    }
    bvec = _real_vector(b, "b")
    m = len(bvec)
    if not _keys_fit(m, dims):
        raise SDPError(f"block dims {dims} are too large: entry keys overflow int64")
    store = _entry_store(entries, dims, m, dtype)
    kept, dropped = _dedupe_rows(store, bvec, dims)
    if primal_hint is not None:
        if len(primal_hint) != len(dims):
            raise SDPError(f"primal hint has {len(primal_hint)} blocks for {len(dims)}")
        primal_hint = tuple(
            checked_hermitian(blk, dims[l], f"primal hint block {l}", SDPError, dtype)
            for l, blk in enumerate(primal_hint)
        )
    if dual_hint is not None:
        dual_hint = _real_vector(dual_hint, "dual hint")
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


def _entry_store(entries, dims, m, dtype) -> ConstraintStore:
    """The store of `make_problem`'s (row, block, i, j, value) entries,
    once they are checked; raises SDPError naming the first bad entry."""
    row, block, i, j = (np.asarray(a, dtype=np.int64).ravel() for a in entries[:4])
    val = np.asarray(entries[4], dtype=dtype).ravel()
    if not len(row) == len(block) == len(i) == len(j) == len(val):
        raise SDPError("entry arrays (row, block, i, j, value) differ in length")
    _check_entries((row, block, i, j, val), dims, m, 0, SDPError,
                   lambda k: f"entry {k} (row {row[k]}, block {block[k]}, ({i[k]}, {j[k]}))")
    d = np.array(dims, dtype=np.int64)[block]
    lower = i != j
    row = np.concatenate([row, row[lower]])
    block = np.concatenate([block, block[lower]])
    col = np.concatenate([i * d + j, (j * d + i)[lower]])
    val = np.concatenate([val, val[lower].conj()])
    return _sorted_store(row, block, col, val, dims, m)


def _sorted_store(row, block, col, val, dims, m) -> ConstraintStore:
    """The store of entries of distinct (row, block, col): sorted, no zeros."""
    key = np.ravel_multi_index((row, block, col), (m, len(dims), max(dims, default=0) ** 2))
    order = np.argsort(key, kind="stable")
    store = ConstraintStore(row[order], block[order], col[order], val[order])
    live = store.val != 0
    return store if live.all() else ConstraintStore(*(a[live] for a in store))


def realified(problem: SDPProblem) -> SDPProblem:
    """The real program of the same value and dual vector as a Hermitian one.

    Each matrix H of a block of dimension d becomes `linalg.realify(H)`,
    [[Re H, -Im H], [Im H, Re H]]: a stored entry (i, j, z) gives (i, j, Re z),
    (i+d, j+d, Re z), (i, j+d, -Im z) and (i+d, j, Im z).  The embedding
    doubles every inner product, so `b` doubles and `scale` halves, and it
    keeps independent rows independent, so the rows that `make_problem` kept,
    the dual hint and the `dropped` count carry over.  `hermitian_form` is
    its inverse.
    """
    row, block, col, z = problem.store
    d = np.array(problem.block_dims, dtype=np.int64)[block]
    col = col + col // d * d  # (i, j) in dimension 2d
    col = np.concatenate([col, col + 2 * d * d + d, col + d, col + 2 * d * d])
    dims = tuple(2 * n for n in problem.block_dims)
    val = np.concatenate([z.real, z.real, -z.imag, z.imag])
    store = _sorted_store(np.tile(row, 4), np.tile(block, 4), col, val, dims, len(problem.b))
    objective = {l: realify(mat) for l, mat in problem.objective.items()}
    hint = problem.primal_hint and tuple(map(realify, problem.primal_hint))
    return replace(problem, block_dims=dims, objective=objective, store=store, b=2 * problem.b,
                   scale=problem.scale / 2, primal_hint=hint)


def hermitian_form(problem: SDPProblem) -> SDPProblem | None:
    """The Hermitian program whose `realified` is `problem`, or None.

    For a real program without hints whose blocks all have even dimension
    2n, the candidate takes Re H from each matrix's top-left n x n quadrant
    and Im H from its bottom-left one, halves `b` and doubles `scale`.  It
    is returned only when `realified` of it gives back the store arrays,
    objective, `b` and `scale` of `problem` exactly (an identity, not a
    tolerance): halving and doubling are exact, and in every matrix the
    bottom-right quadrant equals the top-left one and the top-right one is
    minus the bottom-left one, entry for entry.  The programs then have the
    same value and dual vector; the data of such a real program commute
    with J = [[0, -I], [I, 0]] (Gatermann and Parrilo, J. Pure Appl.
    Algebra 192, 2004).
    """
    dims = problem.block_dims
    if (np.iscomplexobj(problem.store.val) or problem.primal_hint is not None
            or problem.dual_hint is not None or any(d % 2 for d in dims)):
        return None
    half = tuple(d // 2 for d in dims)
    b, scale = problem.b / 2, 2 * problem.scale
    if not (np.array_equal(2 * b, problem.b) and scale / 2 == problem.scale):
        return None
    objective = {}
    for l, mat in problem.objective.items():
        n = half[l]
        if not (np.array_equal(mat[n:, n:], mat[:n, :n]) and np.array_equal(mat[:n, n:], -mat[n:, :n])):
            return None
        objective[l] = mat[:n, :n].astype(complex)
        objective[l].imag = mat[n:, :n]  # antisymmetric, as `mat` is symmetric
    row, block, col, val = problem.store
    n = np.array(half, dtype=np.int64)[block]
    i, j = np.divmod(col, 2 * n)
    low, right = i >= n, j >= n
    shape = (len(b), len(dims), max(half, default=0) ** 2)
    key = np.ravel_multi_index((row, block, (i - n * low) * n + j - n * right), shape)
    # the store is sorted by (row, block, col), so each quadrant's entries
    # come sorted by key, and twin quadrants hold the same keys in order
    tl, br, bl, tr = ~low & ~right, low & right, low & ~right, ~low & right
    if not (np.array_equal(key[tl], key[br]) and np.array_equal(val[tl], val[br])
            and np.array_equal(key[bl], key[tr]) and np.array_equal(val[bl], -val[tr])):
        return None
    # the Hermitian store merges the keys of Re H (top-left) and Im H
    # (bottom-left), each ascending in store order: numpy's stable sort of
    # int64 keys, a timsort, merges the two runs in one pass.  An entry of
    # Re H and its twin of Im H share a key
    key = np.concatenate([key[tl], key[bl]])
    order = np.argsort(key, kind="stable")
    first = np.diff(key[order], prepend=-1) != 0  # keys are >= 0
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    z, re = np.zeros(np.count_nonzero(first), dtype=complex), np.count_nonzero(tl)
    z.real[slot[:re]], z.imag[slot[re:]] = val[tl], val[bl]
    return replace(problem, block_dims=half, objective=objective,
                   store=ConstraintStore(*np.unravel_index(key[order[first]], shape), z), b=b, scale=scale)


def _keys_fit(rows, dims) -> bool:
    """Whether entry keys of `rows` rows over blocks of dimensions `dims`,
    as `_check_entries` and `_entry_store` number them, fit in int64."""
    return (rows + 1) * (len(dims) + 1) * (max(dims, default=0) + 1) ** 2 <= np.iinfo(np.int64).max


def _check_entries(entries, dims, rows, base, error, name) -> None:
    """Check (row, block, i, j, value) entry arrays against the entry rules,
    with blocks and indices counted from `base`; raise `error` naming, by
    `name(k)`, the first entry k that breaks one, and the first it breaks."""
    row, block, i, j, val = entries
    d = np.take((*dims, 0), block - base, mode="clip")  # read only for blocks in range
    # out-of-range entries clip onto keys; a repeat that makes is on or after a broken entry
    top = max(dims, default=0) + 1
    key = np.ravel_multi_index((row, block - base, i - base, j - base), (rows + 1, len(dims) + 1, top, top),
                               mode="clip")
    order = np.argsort(key, kind="stable")  # of equal keys, the later comes later
    repeat = np.zeros(len(row), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    rules = {
        "entry value {v!r} is not finite": ~np.isfinite(val),
        f"row out of range 0..{rows - 1}": (row < 0) | (row >= rows),
        f"block out of range {base}..{len(dims) - 1 + base}": (block < base) | (block >= len(dims) + base),
        "index exceeds the block dimension {d}": (np.minimum(i, j) < base) | (np.maximum(i, j) >= d + base),
        "lower-triangle entry; give the upper triangle only": i > j,
        "diagonal entry value {v!r} is not real": (i == j) & (val.imag != 0),
        "duplicate entry for row {r} block {l} ({i}, {j})": repeat,
    }
    broken = np.stack(list(rules.values()))
    if broken.any():
        k = int(np.argmax(broken.any(axis=0)))
        what = list(rules)[int(np.argmax(broken[:, k]))]
        raise error(f"{name(k)}: " + what.format(
            v=str(val[k].item()), d=d[k], r=row[k], l=block[k], i=i[k], j=j[k]))


def _dedupe_rows(store: ConstraintStore, bvec, dims):
    """The kept and the dropped rows of `make_problem`'s in-order rule.

    When `_certified_independent` proves that the rule keeps every row, no
    QR runs: each row is then nearly sqrt(`_GRAM_MARGIN`) of its norm from
    the others, far beyond what rounding in the QR could move.  Otherwise
    the QR loop below decides.  It alone finds dependent rows, so what is
    kept, what is dropped and what is reported never depend on the
    certificate.
    """
    m = len(bvec)
    if _certified_independent(store, m, dims):
        return list(range(m)), []
    # rows as vectorised block matrices, on only the columns that are
    # nonzero in some row: the others add nothing to any inner product; a
    # complex column is viewed as two real ones, its real and imaginary part
    offsets = np.cumsum([0] + [d * d for d in dims])
    used, pos = np.unique(offsets[store.block] + store.col, return_inverse=True)
    rows = np.zeros((m, len(used)), dtype=store.val.dtype)
    rows[store.row, pos] = store.val
    rows = rows.view(float)
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


# c of `_certified_independent`: far above its rounding bound e (at most
# 1.2e-9 on the bench ladder) and far below the least eigenvalue of the
# scaled Gram matrix of any ladder program (1.9e-3)
_GRAM_MARGIN = 1e-6


def _certified_independent(store: ConstraintStore, m: int, dims) -> bool:
    """Whether the m rows are provably each more than DEP_TOL * max(1, norm)
    from the span of the others, hence of the rows before them.

    G is the rows' Gram matrix, formed block by block from the rows that
    touch a block, on that block's used columns; n counts the used columns
    of all blocks, a complex column as two real ones.  With the computed row
    norms r~ and S = diag(1/r~), the certificate is a floating-point
    Cholesky factor of fl(S G S) - c I, c = `_GRAM_MARGIN`.  Write u for the
    unit roundoff and g for gamma(n + m + 3), gamma(k) = ku/(1 - ku).  Then
    (Rump, "Verification of positive definiteness", BIT 46, 2006; Higham
    ch. 3 and 10):
    - each computed entry of G is within gamma(n)|r_i||r_j| of the exact
      one, in any summation order, and r~_k within gamma(n + 2) of |r_k|
      relative; so fl(S G S) is within 2g of H = S G S entrywise (the two
      roundings of the scaling included), and within 2mg in 2-norm;
    - subtracting c rounds the diagonal, by at most 2u;
    - a Cholesky factor computed in floating point of a symmetric matrix A
      exists only if lambda_min(A) >= -gamma(m + 1) tr(A)/(1 - gamma(m + 1))
      >= -4mg, as the diagonal of A is at most 2.
    So lambda_min(H) >= c - e with e = (6m + 2) g.  Row k's distance from
    the span of the others is 1/sqrt((G^-1)_kk) = r~_k/sqrt((H^-1)_kk), at
    least sqrt(c - e) r~_k, and the threshold DEP_TOL max(1, |r_k|) is at
    most DEP_TOL max(1, r~_k)/(1 - g).  Underflow is ignored: it moves no
    entry of fl(S G S), whose diagonal is 1, by as much as u.  Rows that
    cannot be independent, with m above n, are not tried.
    """
    n, gram = _row_gram(store, m, dims)
    if gram is None:
        return False
    norm = np.sqrt(np.diag(gram))
    u = np.finfo(float).eps / 2
    g = (n + m + 3) * u / (1 - (n + m + 3) * u)
    e = (6 * m + 2) * g
    # a zero row, or any row once e reaches c, fails here
    if np.any(np.sqrt(max(_GRAM_MARGIN - e, 0.0)) * (1 - g) * norm <= DEP_TOL * np.maximum(1.0, norm)):
        return False
    scaled = gram / np.outer(norm, norm)
    scaled[np.diag_indices(m)] -= _GRAM_MARGIN
    try:
        np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        return False
    return True


def _row_gram(store: ConstraintStore, m: int, dims):
    """n and G of `_certified_independent`, G None when the m rows outnumber
    the n columns.  No sort runs: the store is sorted by row, so a block's
    rows come in runs, and its used columns are marked in a table of its
    d^2 columns; both are taken in ascending order."""
    used = []
    for l, d in enumerate(dims):
        mark = np.zeros(d * d, dtype=bool)
        mark[store.col[store.block == l]] = True
        used.append(mark)
    n = sum(map(np.count_nonzero, used)) * (2 if np.iscomplexobj(store.val) else 1)
    if m > n:
        return n, None
    gram = np.zeros((m, m))
    for l, mark in enumerate(used):
        here = store.block == l
        row = store.row[here]
        run = np.ones(len(row), dtype=bool)
        run[1:] = row[1:] != row[:-1]
        dense = np.zeros((np.count_nonzero(run), np.count_nonzero(mark)), dtype=store.val.dtype)
        dense[np.cumsum(run) - 1, (np.cumsum(mark) - 1)[store.col[here]]] = store.val[here]
        dense = dense.view(float)  # Re Tr(A_i A_j) as a real inner product
        rows = row[run]
        gram[np.ix_(rows, rows)] += dense @ dense.T
    return n, gram


# The row count from which `_tril_inv` inverts by 2 x 2 blocks, not by
# numpy's inverse
_SPLIT_ROWS = 96


class _Newton(NamedTuple):
    """The Newton system M dy = h, with the inverse of its lower Cholesky
    factor L."""

    matrix: np.ndarray  # M
    inv: np.ndarray  # L^-1
    jitter: float  # the shift factored, over max(1, M's largest diagonal entry)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs with the factor, then take two steps of iterative
        refinement against M itself, which also undo the effect of any
        jitter."""
        x = self.inv.T @ (self.inv @ rhs)
        for _ in range(2):
            x = x + self.inv.T @ (self.inv @ (rhs - self.matrix @ x))
        return x


def _factor_newton(M: np.ndarray) -> _Newton:
    """The Newton system M, factored whole by one Cholesky factor.

    numpy has no triangular solve, so the factor is inverted once per
    iteration, by `_tril_inv`, and applied by matrix products.  When M is
    not numerically positive definite, a growing multiple of its largest
    diagonal entry is added to its diagonal before factoring again; the
    system's `jitter` is that multiple.
    """
    if not np.all(np.isfinite(M)):
        raise SDPError(
            "Newton system is not finite: the Schur complement has NaN or inf entries"
        )
    scale = max(1.0, float(np.max(np.abs(np.diag(M))))) if len(M) else 1.0
    for jit in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        try:
            inv = _tril_inv(np.linalg.cholesky(M + jit * scale * np.eye(len(M)) if jit else M))
        except np.linalg.LinAlgError:
            continue
        return _Newton(M, inv, jit)
    raise SDPError("Newton system factorization failed: Schur complement is numerically singular")


def _tril_inv(lower: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by 2 x 2 blocks:
    inv([[A, 0], [B, C]]) = [[A^-1, 0], [-C^-1 B A^-1, C^-1]] (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 14).
    About m^3/3 flops, almost all in matrix products, where the general
    LU inverse below `_SPLIT_ROWS` rows takes about 2m^3.  From
    `_SPLIT_ROWS` rows the inverse is written over `lower`, whose upper
    triangle must be zero, and returned; below, it is a new array."""
    m = len(lower)
    if m < _SPLIT_ROWS:
        return np.linalg.inv(lower)
    h = m // 2
    # assigning a block its own in-place inverse copies nothing
    lower[:h, :h] = _tril_inv(lower[:h, :h])
    lower[h:, h:] = _tril_inv(lower[h:, h:])
    lower[h:, :h] = -lower[h:, h:] @ (lower[h:, :h] @ lower[:h, :h])
    return lower


def _check_tol(tol) -> None:
    if not (is_number(tol) and math.isfinite(tol) and tol > 0):
        raise SDPError(f"tol must be finite and positive, got {tol!r}")


def _max_neg_curvature(sig: np.ndarray, delta: np.ndarray) -> float:
    # largest t with  diag(sig) + t*delta >= 0  is 1/max(0, -lambda_min) of
    # the sig^{-1/2}-scaled direction
    scaled = delta / np.sqrt(np.outer(sig, sig))
    w = np.linalg.eigvalsh(0.5 * (scaled + scaled.conj().T))
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
) -> SDPSolution:
    """Solve with an infeasible-start path-following method.

    Nesterov-Todd scaling G per block, Mehrotra predictor-corrector.  The
    problem's dtype is the iterates' dtype: real symmetric blocks, or
    complex Hermitian ones, with ^H the conjugate transpose (the transpose
    on a real block) and every inner product Re Tr.  In exact arithmetic a
    Hermitian block of dimension d takes the steps that its real embedding
    (`linalg.realify`) of dimension 2d takes from the embedded starting
    point, in about half the multiply-adds; the stopping tests differ, as
    the embedding doubles objectives and right-hand sides.

    Schur entry (i, j) of a block is Tr(W A_i W A_j), W = G G^H, over the m
    rows that touch the block, by the formula `_factored_pays` picks for it.
    Dense: the Gram matrix of the congruences G^H A_i G, about
    2md^3 + m^2 d^2 multiply-adds in dimension d, less where a row's
    support R_i, the rows of A_i that hold a nonzero, is small: its
    congruence is G^H[:, R_i] (A_i[R_i, :] G) (`_support_groups`).  On the
    realified NH block of `random_model(3, 10, 2)` (d = 60), 365 of 406 rows
    have supports of at most 8 rows.  The rows are held once, densely, by
    support group, as their slices A_i[R_i, :], and each group writes its
    congruences in place, into its own span of one (m, d, d) work stack
    that every iteration reuses; the residuals take the rows of thin
    groups from their nonzeros.  Factored: row i is zero outside the rows
    and columns of its greedy cover H_i, so with E_i the columns H_i of the
    identity and W_i = A_i[:, H_i] with its rows H_i halved, it is exactly
    W_i E_i^T + E_i W_i^H.  The block's covers use u distinct indices; with
    E = G^H on their columns and F = G^H W, the congruence G^H A_i G is
    F_i E_i^H + E_i F_i^H, and the entry is 2 Re Tr(a_ij a_ji + b_ij g_ji)
    for a = E^H F, b = E^H E and g = F^H F, taken at the rows' k cover
    slots: about kmd^2 + k^2 m^2 d multiply-adds for covers of width k, used
    when that count (with the directions' products and a fixed overhead) is
    the smaller.  Each direction's right-hand side takes (X + X^H) E, and
    dZ takes F times the map of slots to cover indices, with no m x d^2
    stack.  Every row of a Holevo program touches only its n border rows,
    so there u = n.

    The Newton matrix, the sum of the blocks' Schur parts, is formed once
    per iteration in constraint order and factored whole by one Cholesky
    factor (`_factor_newton`).  A step holds one work stack per dense
    block and one Newton system: the last step's system, maps and
    directions are dropped before the next step's NT factors are formed,
    each block's Schur part is added into M in place, from the order its
    formula forms it in (`_add_part`), and a Cholesky factor of
    `_SPLIT_ROWS` rows or more is inverted over itself.

    Deterministic: fixed reduction orders, no randomization.  Builder
    hints on the problem are used as starting points when present.

    Each iterate, the starting point first, is judged once, in this order:
    `optimal` when the relative gap and both relative infeasibilities are
    each at most `tol` (three comparisons, which a NaN fails);
    `infeasible_suspect` when mu has grown 1e8-fold from the start or the
    primal infeasibility exceeds 1e10; `stalled` when the best merit so far
    is at most sqrt(tol) and none of the last `_STALL_LIMIT` steps made
    progress; `max_iter` once `max_iter` steps have been taken; else a step
    is taken.  An iterate's merit is the largest of its gap and
    infeasibilities, and a step makes progress when its merit falls below
    `_PROGRESS` times the best before it.  Of 2,237 solves made by the tests
    and by the benchmark workloads (seeds 1 to 3), the 2,177 that end
    `optimal` never went 3 steps without progress, while NH `pd xyz` at
    eps = 0.99 reaches its best merit, 1.09e-9 at a tol of 1e-9, at step 17
    and stalls at step 27.  The sqrt(tol) gate keeps a solve that never came
    near optimal from being judged stalled: the infeasible program Y11 = 2,
    Tr Y = 1 would stall at step 11 without it, and is `infeasible_suspect`
    at step 26 with it.  `iterations` is the number of steps taken, whatever
    the status, and the solution is the iterate that was judged, so
    `solve(max_iter=k)` ends at iterate k of the same path.  `max_iter` = 0
    judges the starting point alone; one that is negative or not an integer
    (a bool is not) raises, as does a `tol` that is not a finite and
    positive real number.  `newton_jitter` is the largest shift,
    over max(1, its largest diagonal entry), that `_factor_newton` added to
    a Newton matrix over the solve, 0.0 when none.
    """
    if not is_integer(max_iter):
        raise SDPError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 0:
        raise SDPError(f"max_iter must be >= 0, got {max_iter}")
    _check_tol(tol)
    dims = problem.block_dims
    nb = len(dims)
    m = problem.num_constraints
    nu = float(sum(dims))
    b = problem.b

    formulas = _block_formulas(problem)
    # where the rows of each block's Schur part, in its work order, go in M;
    # None when they are all the rows, in M's order
    places = [f.rows if f.order is None else f.rows[f.order] for f in formulas]
    places = [None if np.array_equal(q, np.arange(m)) else q for q in places]
    dtype = problem.store.val.dtype
    C = [problem.objective.get(l, np.zeros((d, d), dtype)) for l, d in enumerate(dims)]
    c_scale = 1.0 + max((float(np.max(np.abs(cb))) for cb in C), default=0.0)
    b_scale = 1.0 + (float(np.max(np.abs(b))) if m else 0.0)

    Y = _initial_primal(problem, dims, dtype)
    y, Z = _initial_dual(problem, formulas, C)

    def constraint_values(blocks):
        out = np.zeros(m)
        for f, blk in zip(formulas, blocks):
            out[f.rows] += f.values(blk)
        return out

    best, idle, jitter = math.inf, 0, 0.0
    for it in range(max_iter + 1):
        pobj = sum(float(np.vdot(C[l], Y[l]).real) for l in range(nb))
        dobj = float(b @ y)
        rp = b - constraint_values(Y)
        Rd = [C[l] - f.combination(y[f.rows]) - Z[l] for l, f in enumerate(formulas)]
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        pinf = (float(np.max(np.abs(rp))) if m else 0.0) / b_scale
        dinf = max(float(np.max(np.abs(r))) for r in Rd) / c_scale
        mu = sum(float(np.vdot(Y[l], Z[l]).real) for l in range(nb)) / nu
        if it == 0:
            mu0 = max(mu, 1e-300)
        merit = float(np.max((gap, pinf, dinf)))  # NaN if any is: no progress
        idle = 0 if merit < _PROGRESS * best else idle + 1
        best = min(best, merit)
        if gap <= tol and pinf <= tol and dinf <= tol:
            status = "optimal"
            break
        if mu > 1e8 * mu0 or pinf > 1e10:
            status = "infeasible_suspect"
            break
        if best <= math.sqrt(tol) and idle >= _STALL_LIMIT:
            status = "stalled"
            break
        if it == max_iter:
            status = "max_iter"
            break

        Gs, Gis, sigmas = zip(*(_nt_factor(Y[l], Z[l]) for l in range(nb)))
        Rdbar = [Gs[l].conj().T @ Rd[l] @ Gs[l] for l in range(nb)]
        # each block's Schur part is added in and dropped; its maps are kept
        M = np.zeros((m, m))
        maps = []
        for f, G, place in zip(formulas, Gs, places):
            part, apply, adjoint = f.scaled(G)
            _add_part(M, place, part)
            maps.append((f.rows, apply, adjoint))
        del part
        newton = _factor_newton(M)
        jitter = max(jitter, newton.jitter)

        def directions(T):
            h = rp.copy()
            for l, (rows, apply, _) in enumerate(maps):
                h[rows] -= apply(T[l] - Rdbar[l])
            dy = newton.solve(h)
            dZb = [Rdbar[l] - adjoint(dy[rows]) for l, (rows, _, adjoint) in enumerate(maps)]
            dZb = [0.5 * (dz + dz.conj().T) for dz in dZb]
            return dy, [T[l] - dz for l, dz in enumerate(dZb)], dZb

        T_aff = [-np.diag(sig) for sig in sigmas]
        dy_a, dYb_a, dZb_a = directions(T_aff)
        ap_a = _step_length(sigmas, dYb_a)
        ad_a = _step_length(sigmas, dZb_a)
        mu_aff = sum(
            float(np.vdot(np.diag(sig) + ap_a * dYb_a[l], np.diag(sig) + ad_a * dZb_a[l]).real)
            for l, sig in enumerate(sigmas)
        ) / nu
        sig_c = min(0.999, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        T_corr = []
        for l, sig in enumerate(sigmas):
            corr = 0.5 * (dYb_a[l] @ dZb_a[l] + dZb_a[l] @ dYb_a[l])
            rc = sig_c * mu * np.eye(dims[l]) - np.diag(sig * sig) - corr
            T_corr.append(2.0 * rc / (sig[:, None] + sig[None, :]))
        dy, dYb, dZb = directions(T_corr)
        # the step's Newton system goes before the next step forms its own
        del M, newton, maps, directions
        ap = _step_length(sigmas, dYb)
        ad = _step_length(sigmas, dZb)

        for l in range(nb):
            dY = Gs[l] @ dYb[l] @ Gs[l].conj().T
            dZ = Gis[l].conj().T @ dZb[l] @ Gis[l]
            Y[l] = 0.5 * ((Y[l] + ap * dY) + (Y[l] + ap * dY).conj().T)
            Z[l] = 0.5 * ((Z[l] + ad * dZ) + (Z[l] + ad * dZ).conj().T)
        y = y + ad * dy

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
        newton_jitter=jitter,
    )


def _add_part(M: np.ndarray, place, part: np.ndarray) -> None:
    """M[np.ix_(place, place)] += part, in place and with no m x m copy of
    either: numpy's unbuffered `add.at`, by chunks of 64 rows of `part`.
    Each entry of M takes the one addition that the fancy-indexed sum
    makes.  A part over all the rows, in M's order (`place` None), is added
    whole."""
    if place is None:
        M += part
        return
    flat = M.reshape(-1)
    for s in range(0, len(place), 64):
        np.add.at(flat, (place[s : s + 64, None] * len(M) + place).ravel(), part[s : s + 64].ravel())


def _initial_primal(problem, dims, dtype):
    if problem.primal_hint is not None:
        Y = [blk.copy() for blk in problem.primal_hint]
    else:
        tau = max(10.0, float(np.max(np.abs(problem.b))) if len(problem.b) else 0.0)
        Y = [tau * np.eye(d, dtype=dtype) for d in dims]
    for l, d in enumerate(dims):
        w = np.linalg.eigvalsh(Y[l])
        floor = START_FLOOR * max(1.0, float(w[-1]))
        if w[0] < floor:
            Y[l] = Y[l] + (floor - w[0]) * np.eye(d)
    return Y


def _initial_dual(problem, formulas, C):
    y = np.zeros(problem.num_constraints) if problem.dual_hint is None else problem.dual_hint.copy()
    Z = []
    for l, (d, f) in enumerate(zip(problem.block_dims, formulas)):
        zb = C[l] - f.combination(y[f.rows])
        zb = 0.5 * (zb + zb.conj().T)
        w = np.linalg.eigvalsh(zb)
        floor = START_FLOOR * max(1.0, float(np.max(np.abs(zb))), float(w[-1]) if d else 1.0)
        if problem.dual_hint is None:
            floor = max(floor, 10.0)
        if w[0] < floor:
            zb = zb + (floor - w[0]) * np.eye(d)
        Z.append(zb)
    return y, Z


class _DenseRows(NamedTuple):
    """A block's m rows, dense and held once: by the support groups of
    `_support_groups`, each the slices A_i[R, :] of its rows.  `values` and
    `combination`, (<A_i, Y>)_i and sum_i v_i A_i over these rows, take a
    full-width group's rows whole, and the rows of the thin groups from
    their nonzeros, `entries`.  `work` is an (m, d, d) stack that every
    iteration reuses.  It holds the congruences of `scaled` group after
    group, each group's written in place in its own span; `order` lists the
    rows' positions in that order, and is None when it is their own."""

    rows: np.ndarray
    groups: tuple
    order: np.ndarray | None
    entries: tuple  # the thin groups' nonzeros: row position, flat position, value
    work: np.ndarray

    def values(self, Y):
        r, at, val = self.entries
        out = np.empty(len(self.rows))
        if len(r):
            out = np.bincount(r, weights=(val * Y.ravel()[at].conj()).real, minlength=len(out))
        for pos, sup, rows, _ in self.groups:
            if sup is None:
                out[pos] = (rows.reshape(len(rows), Y.size) @ Y.conj().ravel()).real
        return out

    def combination(self, v):
        r, at, val = self.entries
        d = self.work.shape[1]
        parts = [rows.reshape(len(rows), d * d).T @ v[pos] for pos, sup, rows, _ in self.groups if sup is None]
        if len(r):
            parts.append(_bincount(at, v[r] * val, d * d))
        return sum(parts[1:], parts[0]).reshape(d, d)

    def scaled(self, G):
        """The block's Schur part, with its rows in `work` order (`order`),
        X -> (Tr(G^H A_i G X))_i, and v -> sum_i v_i G^H A_i G.  Each
        congruence is formed on its row's support R alone, as
        G^H[:, R] (A_i[R, :] G): the terms left out are products with exact
        zeros.  A full-support row keeps full width."""
        Gh, Gc = G.conj().T, G.conj()
        for _, sup, rows, span in self.groups:
            gh = Gh if sup is None else np.swapaxes(Gc[sup], 1, 2)
            np.matmul(gh, rows @ G, out=self.work[span])
        abar = self.work.reshape(len(self.rows), G.size)
        parts = abar.view(float)  # Re Tr(Abar_i Abar_j) as a real inner product
        gram = parts @ parts.T
        order = self.order
        if order is None:
            return (gram, lambda X: (abar @ X.conj().ravel()).real,
                    lambda v: (abar.T @ v).reshape(G.shape))
        at = np.argsort(order)  # each row's place in `work`
        return (gram, lambda X: (abar @ X.conj().ravel()).real[at],
                lambda v: (abar.T @ v[order]).reshape(G.shape))


def _support_groups(r, i, j, val, m: int, d: int):
    """The m rows of a dense block of dimension d, given as its entries
    (row position r, i, j, value), grouped by support: the groups,
    `order` and `entries` of `_DenseRows`.  A group is (positions, supports,
    A_i[R, :], span of `work`), positions ascending.  Row i's support R is
    the set of rows (and so columns) of A_i that hold a nonzero.  It is
    widened by the lowest rows outside it to 2, 4, 8, ... rows: that makes
    fewer groups, at the cost of exact-zero terms only, and no complex
    product of one term, which numpy does not round as it rounds the
    full-width sum.  A group of width w < d saves 2 k d^2 (d - w)
    multiply-adds (in real ones) for its k rows, and costs four numpy calls;
    when that does not pay, its rows keep full width.  A support of full
    width is None, and its rows are taken whole.  The dense (m, d, d) stack
    is built only to cut the groups from it: it outlives this call only as
    the one group of all the rows at full width, a view of it."""
    stack = np.zeros((m, d, d), dtype=val.dtype)
    stack[r, i, j] = val
    present = np.zeros((m, d), dtype=bool)
    present[r, i] = True
    madd = 4 if np.iscomplexobj(stack) else 1
    width = np.minimum(2 ** np.ceil(np.log2(np.maximum(present.sum(axis=1), 2))).astype(int), d)
    saved = 2 * np.bincount(width, minlength=d + 1) * d * d * (d - np.arange(d + 1))
    width = np.where(saved[width] * madd > 4 * _CALL_MADDS, width, d)
    groups, start = [], 0
    for w in np.unique(width).tolist() or [d]:  # a block no row touches: one empty group
        pos = np.flatnonzero(width == w)
        span = slice(start, start + len(pos))
        start = span.stop
        if w == d:
            pos = slice(None) if len(pos) == m else pos
            groups.append((pos, None, stack[pos], span))
        else:
            sup = np.sort(np.argsort(~present[pos], axis=1, kind="stable")[:, :w], axis=1)
            groups.append((pos, sup, stack[pos[:, None], sup], span))
    order = np.concatenate([np.arange(m)[pos] for pos, *_ in groups])
    thin = width[r] < d
    entries = (r[thin], (i * d + j)[thin], val[thin])
    return tuple(groups), None if np.array_equal(order, np.arange(m)) else order, entries


class _FactoredRows(NamedTuple):
    """A block's rows in the cover form of `solve`, A_i = W_i E_i^T +
    E_i W_i^H, held as W alone: the u distinct cover indices `used`, each
    cover slot's place in them, `pos`, and the columns W_i of every row side
    by side, `cols`."""

    rows: np.ndarray
    used: np.ndarray  # (u,)
    pos: np.ndarray  # (m, k): row i's slot a is column used[pos[i, a]]
    cols: np.ndarray  # (d, m k): W_i in cols[:, i k : (i + 1) k]
    entries: tuple  # the block's nonzeros: row position, flat position, value
    order = None  # the Schur part of `scaled` has the rows in their own order

    def values(self, Y):
        row, at, val = self.entries
        return np.bincount(row, weights=(val * Y.ravel()[at].conj()).real, minlength=len(self.rows))

    def combination(self, v):
        row, at, val = self.entries
        d = len(self.cols)
        return _bincount(at, v[row] * val, d * d).reshape(d, d)

    def scaled(self, G):
        """As `_DenseRows.scaled`, from E = G^H[:, used] and F = G^H W, in
        which G^H A_i G = F_i E_i^H + E_i F_i^H, with E_i = E[:, pos[i]].
        Entry (i, j) of the Schur part is 2 Re Tr(a_ij a_ji + b_ij g_ji),
        with a_ij = E_i^H F_j, b_ij = E_i^H E_j and g_ij = F_i^H F_j: the
        Gram matrix of F is its only product of order m^2 d."""
        (m, k), d = self.pos.shape, len(G)
        pos = self.pos.ravel()
        Gh = G.conj().T
        E = Gh[:, self.used]
        Eh = E.conj().T
        F = Gh @ self.cols
        Fc = F.conj()
        a = (Eh @ F)[pos]
        ab = (Eh @ E)[np.ix_(pos, pos)]
        ab *= F.T @ Fc  # b o g^T, g Hermitian
        ab += a * a.T
        ones = np.ones(k)

        def apply(X):
            # Re Tr(Abar_i X) = Re sum over i's slots s of F_s^H (X + X^H) E_s
            XE = (X + X.conj().T) @ E
            return (np.ones(d) @ (Fc * XE[:, pos])).real.reshape(m, k) @ ones

        def adjoint(v):
            slots = np.zeros((m * k, len(self.used)))
            slots[np.arange(m * k), pos] = np.repeat(v, k)
            half = (F @ slots) @ Eh  # sum_i v_i F_i E_i^H
            return half + half.conj().T

        # block sums by products with ones, which numpy does faster than sum
        schur = ab.real if k == 1 else ones @ (ab.real.reshape(m, k, m, k) @ ones)
        return 2.0 * schur, apply, adjoint


# multiply-adds that take about as long as the overhead of one numpy call
_CALL_MADDS = 10**5


def _factored_pays(m: int, d: int, k: int, madd: int) -> bool:
    """Whether the factored formula takes fewer multiply-adds per iteration
    than the dense one for m rows of cover width k in dimension d.  The
    factored one takes kmd^2 for F = G^H W, k^2 m^2 d for its Gram matrix and
    2k^2 m^2 for the elementwise products; with u <= min(d, km) distinct
    cover indices, 3ukmd for a and the two directions' sums over slots, and
    4ud^2 for their products with E.  The dense one takes 2md^3 + m^2 d^2,
    and 4md^2 in the two directions.  The factored one counts
    `_CALL_MADDS` more for each of its ten or so extra numpy calls.  `madd`
    is the cost of one multiply-add in real ones: 1 on a real block, 4 on a
    complex one.  The counts of both formulas scale by it and the overhead
    does not, so a complex block is factored from a smaller size than a real
    one; every Holevo block of the bench ladder (dimension 30 to 102, covers
    of width 1) is factored."""
    u = min(d, k * m)
    factored = k * m * d * d + k * k * m * m * (d + 2) + 3 * u * k * m * d + 4 * u * d * d
    dense = 2 * m * d**3 + m * m * d * d + 4 * m * d * d
    return madd * factored + 10 * _CALL_MADDS < madd * dense


def _greedy_cover(r, i, j, m, d, madd):
    """Greedy vertex covers of m d x d nonzero patterns, with entries at
    (i[e], j[e]) of pattern r[e], as an (m, k) index array; None once k is
    too large for `_factored_pays` at `madd`.  Each pass adds to every cover
    the index that covers most uncovered entries, ties to the lowest.  A
    pattern already covered takes index 0: a cover stays a cover when it
    grows, and all but one slot of a repeated index get an empty column of
    W (`_FactoredRows`), which adds nothing."""
    todo = np.ones(len(r), dtype=bool)
    picks = []
    while todo.any():
        if not _factored_pays(m, d, len(picks) + 1, madd):
            return None
        ends = np.concatenate([i[todo], j[todo & (i != j)]])  # a diagonal entry counts once
        deg = np.bincount(np.concatenate([r[todo], r[todo & (i != j)]]) * d + ends, minlength=m * d)
        pick = np.argmax(deg.reshape(m, d), axis=1)
        picks.append(pick)
        todo &= (i != pick[r]) & (j != pick[r])
    return np.stack(picks, axis=1) if picks else None


def _block_formulas(problem):
    """Each block's rows (those with entries there, never padded in), in the
    factored formula when their greedy covers make it pay, else the dense."""
    store = problem.store
    formulas = []
    for l, d in enumerate(problem.block_dims):
        here = store.block == l
        rows, r = np.unique(store.row[here], return_inverse=True)
        i, j = np.divmod(store.col[here], d)
        val = store.val[here]
        H = _greedy_cover(r, i, j, len(rows), d, 4 if np.iscomplexobj(val) else 1)
        if H is None:
            groups, order, entries = _support_groups(r, i, j, val, len(rows), d)
            formulas.append(_DenseRows(rows, groups, order, entries, np.empty((len(rows), d, d), val.dtype)))
            continue
        m, k = H.shape
        slot = np.full((m, d), -1)
        slot[np.arange(m)[:, None], H] = np.arange(k)
        b = slot[r, j] >= 0  # the entries of B_i = A_i[:, H]
        cols = np.zeros((d, m, k), dtype=val.dtype)
        cols[i[b], r[b], slot[r[b], j[b]]] = val[b]
        cols[H, np.arange(m)[:, None]] *= 0.5  # W_i: each row of H halved once
        used, pos = np.unique(H, return_inverse=True)
        formulas.append(_FactoredRows(rows, used, pos.reshape(m, k), cols.reshape(d, m * k), (r, i * d + j, val)))
    return formulas


def _nt_factor(Yb: np.ndarray, Zb: np.ndarray):
    """G, G^-1 and the NT scaled point's eigenvalues: G^H Z G = G^-1 Y G^-H
    = diag(sig)."""
    wy, Uy = np.linalg.eigh(0.5 * (Yb + Yb.conj().T))
    wz, Uz = np.linalg.eigh(0.5 * (Zb + Zb.conj().T))
    fy = np.maximum(wy, 1e-14 * max(1.0, float(wy[-1])))
    fz = np.maximum(wz, 1e-14 * max(1.0, float(wz[-1])))
    L = Uy * np.sqrt(fy)
    Linv = (Uy / np.sqrt(fy)).conj().T
    R = Uz * np.sqrt(fz)
    Us, sig, VsT = np.linalg.svd(R.conj().T @ L)
    Vs = VsT.conj().T
    G = L @ (Vs / np.sqrt(sig))
    Gi = (Vs * np.sqrt(sig)).conj().T @ Linv
    return G, Gi, sig


def check_certificate(
    problem: SDPProblem, solution: SDPSolution, tol: float = 1e-7
) -> CertificateReport:
    """Recompute feasibility, PSD floors, and the duality gap from scratch,
    in the problem's own dtype.  `tol` must be finite and positive."""
    _check_tol(tol)
    dims = problem.block_dims
    m = problem.num_constraints
    Y = solution.primal
    Z = solution.dual_Z
    y = solution.dual_y
    store = problem.store
    offsets = np.cumsum([0] + [d * d for d in dims])
    at = offsets[store.block] + store.col  # entry positions in the blocks laid end to end
    Yflat = np.concatenate([blk.ravel() for blk in Y])
    values = np.bincount(store.row, weights=(store.val * Yflat[at].conj()).real, minlength=m)
    viol = float(np.max(np.abs(values - problem.b))) if m else 0.0
    Cflat = np.concatenate(
        [problem.objective.get(l, np.zeros((d, d))).ravel() for l, d in enumerate(dims)]
    )
    Zflat = Cflat - _bincount(at, y[store.row] * store.val, offsets[-1])
    dres = 0.0
    min_y = np.inf
    min_z = np.inf
    for l, d in enumerate(dims):
        zb = Zflat[offsets[l] : offsets[l + 1]].reshape(d, d)
        dres = max(dres, float(np.max(np.abs(zb - Z[l]))))
        min_y = min(min_y, float(np.linalg.eigvalsh(Y[l])[0]))
        min_z = min(min_z, float(np.linalg.eigvalsh(Z[l])[0]))
    pobj = sum(
        float(np.vdot(mat, Y[l]).real) for l, mat in problem.objective.items()
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
    A problem without constraint rows has no right-hand-side line.  Every
    float, the scale, `b` and each entry value, is written as its Python
    `repr`, so the text of a program is byte-stable.  Each distinct float
    is formatted once, and the entry lines are joined from columns of
    formatted indices and values, by chunks of `_WRITE_LINES` lines.  A
    Hermitian problem is written as its real embedding, `realified`, of
    doubled block dimensions and right-hand sides and halved scale: the
    file's real program has the same value and dual vector.
    """
    if np.iscomplexobj(problem.store.val):
        problem = realified(problem)
    store, m = problem.store, len(problem.b)
    dims = np.array(problem.block_dims, dtype=np.int64)
    i, j = np.divmod(store.col, dims[store.block])
    upper = i <= j
    obj = [(l, *np.nonzero(np.triu(problem.objective[l]))) for l in sorted(problem.objective)]
    # the entry lines' four indices, objective (row -1) first, made 1-based
    index = [np.concatenate(parts) + 1 for parts in zip(
        *((np.full_like(oi, -1), np.full_like(oi, l), oi, oj) for l, oi, oj in obj),
        (store.row[upper], store.block[upper], i[upper], j[upper]))]
    del i, j
    # each distinct float is formatted once, keyed on its bits: -0.0 == 0.0,
    # but their reprs differ
    vals = np.concatenate([problem.b, *(problem.objective[l][oi, oj] for l, oi, oj in obj), store.val[upper]])
    bits, at = np.unique(vals.view(np.int64), return_inverse=True)
    words = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[at]
    b, words = words[:m], words[m:]
    names = np.array([f"{k} " for k in range(max(m, len(dims), *dims.tolist()) + 1)], dtype=object)
    text = [f"* scale {problem.scale!r}\n{m}\n{len(dims)}\n{' '.join(map(str, dims.tolist()))}\n"]
    if m:
        text.append(" ".join(b.tolist()) + "\n")
    # the entry lines by chunks of interleaved columns, so that no chunk
    # outweighs the text
    for s in range(0, len(words), _WRITE_LINES):
        at = slice(s, s + _WRITE_LINES)
        part = np.empty((len(words[at]), 6), dtype=object)
        for k, a in enumerate(index):
            part[:, k] = names[a[at]]
        part[:, 4], part[:, 5] = words[at], "\n"
        text.append("".join(part.ravel().tolist()))
    return "".join(text)


# entry lines that `write_sdpa` formats at once
_WRITE_LINES = 1024

# the first bytes of the lines that `read_sdpa` strips: ASCII whitespace,
# and those of non-ASCII characters, which may be whitespace
_SPACE_BYTE = np.array([chr(k).isspace() or k >= 0x80 for k in range(256)])


def read_sdpa(text: str) -> SDPProblem:
    """Parse the sparse text format written by write_sdpa.

    Negative dims on the block line declare diagonal blocks; their entries
    must be on-diagonal and the block is stored dense.  A right-hand-side
    line follows the block line only when the constraint count is nonzero
    (blank lines are skipped, so none is needed to hold its place).  Every
    number, in the header or on an entry line, is converted by numpy's text
    parser (ASCII digits, no `1_0`); entry lines are converted at once and
    checked by `make_problem`'s rules, which run once on a well-formed file.
    Lines are numbered as `str.splitlines` numbers them, 1-based, and a line
    is a comment or blank as it is once `str.strip` has stripped it.
    SDPAFormatError names the first bad line of any malformed input,
    non-finite numbers and block dimensions too large to number entries by
    included.
    """
    lines = text.splitlines()
    # each line's first byte, from one scan of the lines joined: an empty
    # line's is the newline after it, and no line holds a newline
    joined = np.frombuffer(("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"), np.uint8)
    first = joined[np.concatenate([[0], np.flatnonzero(joined == ord("\n")) + 1])[: len(lines)]]
    comment = (first == ord("*")) | (first == ord('"'))
    blank = first == ord("\n")
    # a line that starts with whitespace, or with a byte of a character that
    # may be whitespace, is stripped, as it is by str.strip: written files
    # have none
    for k in np.flatnonzero(_SPACE_BYTE[first]).tolist():
        line = lines[k].strip()
        comment[k], blank[k] = line.startswith(("*", '"')), not line
    body = np.flatnonzero(~comment & ~blank)  # 0-based, of the lines read
    scale = 1.0
    for k in np.flatnonzero(comment).tolist():
        parts = lines[k].strip().lstrip("*").split()
        if len(parts) == 2 and parts[0] == "scale":
            try:
                scale = float(_numbers([parts[1]])[0])
            except ValueError as exc:
                raise SDPAFormatError(f"line {k + 1}: bad scale value {parts[1]!r}") from exc
            if not math.isfinite(scale):
                raise SDPAFormatError(f"line {k + 1}: scale {parts[1]!r} is not finite")

    def take(idx, what):
        if idx >= len(body):
            raise SDPAFormatError(f"unexpected end of input: missing {what}")
        return body[idx] + 1, lines[body[idx]]

    ln, tok = take(0, "constraint count")
    try:
        m = int(_numbers(tok.split()[:1], "i8")[0])
    except ValueError as exc:
        raise SDPAFormatError(f"line {ln}: constraint count must be an integer") from exc
    ln, tok = take(1, "block count")
    try:
        nblocks = int(_numbers(tok.split()[:1], "i8")[0])
    except ValueError as exc:
        raise SDPAFormatError(f"line {ln}: block count must be an integer") from exc
    ln, tok = take(2, "block dimensions")
    fields = tok.replace(",", " ").replace("(", " ").replace(")", " ").replace("{", " ").replace("}", " ").split()
    if len(fields) != nblocks:
        raise SDPAFormatError(f"line {ln}: expected {nblocks} block dims, got {len(fields)}")
    signed_dims = []
    for f in fields:
        try:
            signed_dims.append(int(_numbers([f], "i8")[0]))
        except ValueError as exc:
            raise SDPAFormatError(f"line {ln}: bad block dimension {f!r}") from exc
    if any(d == 0 for d in signed_dims):
        raise SDPAFormatError(f"line {ln}: zero block dimension")
    dims = tuple(abs(d) for d in signed_dims)
    if not _keys_fit(m + 1, dims):
        raise SDPAFormatError(f"line {ln}: block dimension {max(dims)} is too large")
    diagonal = [d < 0 for d in signed_dims]
    b = np.zeros(0)
    if m:
        ln, tok = take(3, "right-hand side")
        bfields = tok.replace(",", " ").split()
        if len(bfields) != m:
            raise SDPAFormatError(f"line {ln}: expected {m} right-hand-side values, got {len(bfields)}")
        try:
            b = _numbers(bfields)
        except ValueError as exc:
            raise SDPAFormatError(f"line {ln}: bad right-hand-side value") from exc
        if not np.all(np.isfinite(b)):
            raise SDPAFormatError(f"line {ln}: right-hand-side value is not finite")

    rest = body[4 if m else 3:]
    entry = np.zeros(len(lines), dtype=bool)
    entry[rest] = True
    parsed, stop = _parse_entries(list(itertools.compress(lines, entry.tolist())))
    matno, blkno, i, j, val = (parsed[f] for f in parsed.dtype.names)
    off = np.flatnonzero((i != j) & np.isin(blkno, np.flatnonzero(diagonal) + 1))
    stop = off[0] if len(off) else stop
    entries, numbers = (matno[:stop], blkno[:stop], i[:stop], j[:stop], val[:stop]), rest[:stop]

    def check(at):
        """The entry rules on the entry lines `at` of those before `stop`,
        the first that does not convert or is off the diagonal of a diagonal
        block; the first bad line is named."""
        _check_entries(tuple(a[at] for a in entries), dims, m + 1, 1, SDPAFormatError,
                       lambda k: f"line {numbers[at][k] + 1}")

    if stop < len(rest):
        check(slice(None))
        what = "off-diagonal entry in a diagonal block" if len(off) else "expected four integers and a number"
        raise SDPAFormatError(f"line {rest[stop] + 1}: {what}, got {lines[rest[stop]].strip()!r}")
    del lines, joined  # they outweigh the problem's arrays
    l, i, j = blkno - 1, i - 1, j - 1
    con = matno > 0
    # the rules run once: here on the objective's lines, and in make_problem
    # on the rows'; when either finds a broken entry, they run on every line
    # again, to name the first bad one
    try:
        check(~con)
        objective: BlockMat = {}
        for blk in np.unique(l[~con]).tolist():
            here = ~con & (l == blk)
            objective[blk] = np.zeros((dims[blk], dims[blk]))
            objective[blk][i[here], j[here]] = objective[blk][j[here], i[here]] = val[here]
        return make_problem(dims, objective, (matno[con] - 1, l[con], i[con], j[con], val[con]), b, scale)
    except (SDPError, SDPAFormatError):
        check(slice(None))
        raise


def _numbers(fields, dtype="f8") -> np.ndarray:
    """Header fields converted by numpy's text parser, under the number
    rules of entry lines (ASCII digits, no `1_0`); ValueError otherwise."""
    return np.loadtxt([" ".join(fields)], dtype=dtype, ndmin=1, comments=None)


def _parse_entries(lines):
    """The leading entry lines that numpy's text parser converts, as a
    (matno, blkno, i, j, value) record array, and how many there are."""
    # lines convert together exactly when each does, so bisect for the first
    # that does not, parsing only lines not yet converted: O(n) work in all
    dtype = "i8,i8,i8,i8,f8"
    pieces, good, bad, k = [np.empty(0, dtype)], 0, len(lines) + 1, len(lines)
    while bad - good > 1:
        try:  # never on no lines, on which numpy's parser warns
            pieces.append(np.loadtxt(lines[good:k], dtype=dtype, ndmin=1, comments=None))
            good = k
        except ValueError:
            bad = k
        k = (good + bad) // 2
    # a file that converts whole is one piece, which is not copied
    return pieces[-1] if len(pieces) == 2 else np.concatenate(pieces), good
