"""Tests for the SDP data structures, solver, certificates, and text I/O."""
import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qmbounds import bound_builders, sdp_core
from qmbounds.bound_builders import build_holevo_sdp, build_nh_sdp
from qmbounds.linalg import realify
from qmbounds.model import (
    holland_burnett_probe,
    interferometer_model,
    phase_damping_model,
    random_model,
)
from qmbounds.sdp_core import (
    SDPAFormatError,
    SDPError,
    _arrow_order,
    _block_formulas,
    _DenseRows,
    _factor_newton,
    _FactoredRows,
    _nt_factor,
    _row_gram,
    _tril_inv,
    check_certificate,
    hermitian_form,
    make_problem,
    read_sdpa,
    realified,
    solve,
    write_sdpa,
)


def rand_sym(rng, d):
    a = rng.standard_normal((d, d))
    return 0.5 * (a + a.T)


def as_entries(cons):
    """The `make_problem` entries of dense rows: cons[r] maps a block to
    the symmetric matrix of row r there, given by its upper triangle."""
    out = []
    for r, con in enumerate(cons):
        for l, mat in con.items():
            i, j = np.triu_indices(len(mat))
            out.extend((r, l, a, c, v) for a, c, v in zip(i, j, np.asarray(mat)[i, j]))
    return tuple(np.array(col) for col in zip(*out)) if out else ((),) * 5


def toy_problem():
    # minimize trace(Y) over 2x2 PSD Y with Y11 = 1; optimum 1 at diag(1, 0)
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    return make_problem([2], {0: np.eye(2)}, as_entries([{0: a}]), [1.0])


def two_block_problem():
    """Rows: both blocks with an explicit zero block 1; block 1 only; twice
    the first (dropped); both blocks, given block 1 first."""
    a0 = np.array([[1.0, 2.0], [2.0, 0.0]])
    a1 = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [3.0, 0.0, -1.0]])
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return make_problem(
        [2, 3],
        {1: np.diag([0.5, 0.0, 2.0]), 0: np.array([[1.0, -0.25], [-0.25, 0.0]])},
        as_entries([{0: a0, 1: np.zeros((3, 3))}, {1: a1}, {0: 2 * a0}, {1: swap, 0: np.eye(2)}]),
        [1.0, 2.0, 2.0, 3.0],
        scale=0.5,
    )


def random_kkt_problem(seed, dims=(6,), m=8):
    """Random problem with known interior primal and dual points.

    b is generated from a strictly feasible Y0 and C from a strictly
    feasible dual pair, so strong duality holds and the optimum is
    bracketed by the two construction values.
    """
    rng = np.random.default_rng(seed)
    cons = [{l: rand_sym(rng, d) for l, d in enumerate(dims)} for _ in range(m)]
    y_feas = []
    for d in dims:
        g = rng.standard_normal((d, d))
        y_feas.append(g @ g.T + 0.5 * np.eye(d))
    b = [sum(np.vdot(con[l], y_feas[l]) for l in con) for con in cons]
    y0 = rng.standard_normal(m)
    obj = {}
    for l, d in enumerate(dims):
        g = rng.standard_normal((d, d))
        obj[l] = g @ g.T + 0.5 * np.eye(d) + sum(y0[i] * cons[i][l] for i in range(m))
    problem = make_problem(dims, obj, as_entries(cons), b)
    primal_value = sum(np.vdot(obj[l], y_feas[l]) for l in range(len(dims)))
    dual_value = float(np.array(b) @ y0)
    return problem, dual_value, primal_value


class TestSolve:
    def test_toy_analytic(self):
        sol = solve(toy_problem())
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)
        assert sol.primal[0][0, 0] == pytest.approx(1.0, abs=1e-6)
        assert abs(sol.primal[0][1, 1]) < 1e-6

    def test_random_certificate_is_oracle(self):
        problem, dual_value, primal_value = random_kkt_problem(42, dims=(6,), m=8)
        sol = solve(problem)
        assert sol.status == "optimal"
        report = check_certificate(problem, sol, tol=1e-6)
        assert report.passed, report.checks
        assert dual_value - 1e-6 <= sol.primal_obj <= primal_value + 1e-6
        # complementarity: <Y, Z> itself is small at the optimum
        comp = sum(float(np.vdot(yb, zb)) for yb, zb in zip(sol.primal, sol.dual_Z))
        assert comp <= 1e-5 * (1 + abs(sol.primal_obj))

    def test_multi_block(self):
        problem, dual_value, primal_value = random_kkt_problem(7, dims=(4, 3), m=6)
        sol = solve(problem)
        assert sol.status == "optimal"
        assert check_certificate(problem, sol, tol=1e-6).passed
        assert dual_value - 1e-6 <= sol.primal_obj <= primal_value + 1e-6

    def test_determinism(self):
        problem, _, _ = random_kkt_problem(3, dims=(5,), m=6)
        a = solve(problem)
        b = solve(problem)
        assert a.primal_obj == b.primal_obj
        assert a.iterations == b.iterations
        assert all(np.array_equal(x, y) for x, y in zip(a.primal, b.primal))
        assert np.array_equal(a.dual_y, b.dual_y)

    def test_scaling_invariance(self):
        obj = {0: np.diag([1.0, 2.0, 3.0])}
        cons = [{0: np.eye(3)}]
        base = solve(make_problem([3], obj, as_entries(cons), [1.0]))
        scaled = solve(make_problem([3], {0: 7 * obj[0]}, as_entries(cons), [1.0]))
        assert scaled.primal_obj == pytest.approx(7 * base.primal_obj, rel=1e-7)
        assert np.max(np.abs(scaled.primal[0] - base.primal[0])) <= 10 * 1e-8

    def test_scale_factor_applied(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        problem = make_problem([2], {0: np.eye(2)}, as_entries([{0: a}]), [2.0], scale=0.5)
        sol = solve(problem)
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)

    def test_hints_accepted(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        problem = make_problem(
            [2], {0: np.eye(2)}, as_entries([{0: a}]), [1.0],
            primal_hint=(np.diag([1.0, 1.0]),), dual_hint=np.array([0.5]),
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)

    def test_weak_duality_at_every_feasible_iterate(self):
        # solve(max_iter=k) reports iterate k of the full solve's path
        problem, _, _ = random_kkt_problem(11, dims=(4,), m=5)
        sol = solve(problem)
        assert sol.status == "optimal" and problem.scale == 1.0
        feasible = 0
        for k in range(sol.iterations + 1):
            at = solve(problem, max_iter=k)
            if at.primal_infeas <= 1e-7 and at.dual_infeas <= 1e-7:
                assert at.primal_obj >= at.dual_obj - 1e-9 * (1.0 + abs(at.primal_obj))
                feasible += 1
        assert feasible

    def test_infeasible_input_flagged(self):
        # Y11 = 2 together with trace(Y) = 1 forces Y22 = -1: not PSD
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        problem = make_problem(
            [2], {0: np.eye(2)}, as_entries([{0: e11}, {0: np.eye(2)}]), [2.0, 1.0]
        )
        sol = solve(problem, max_iter=100)
        # its best merit stays far above sqrt(tol), so it is never called stalled
        assert sol.status == "infeasible_suspect"

    def test_tight_tolerance(self):
        problem, _, _ = random_kkt_problem(19, dims=(5,), m=7)
        sol = solve(problem, tol=1e-10)
        assert sol.status == "optimal"
        assert sol.gap <= 1e-10

    def test_zero_iterations(self):
        sol = solve(toy_problem(), max_iter=0)
        assert sol.status == "max_iter"
        assert sol.iterations == 0
        assert np.isfinite(sol.gap)

    @staticmethod
    def assert_same_solution(a, b):
        assert (a.status, a.iterations) == (b.status, b.iterations)
        fields = ("primal_obj", "dual_obj", "gap", "primal_infeas", "dual_infeas", "dual_y")
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in fields)
        assert all(np.array_equal(x, y) for x, y in zip(a.primal + a.dual_Z, b.primal + b.dual_Z))

    def test_step_budget_of_an_optimal_solve_reaches_optimal(self):
        # the iterate reached with the last step allowed is judged like any other
        problem = build_nh_sdp(phase_damping_model(0.3, params="xy"))[0]
        full = solve(problem)
        assert full.status == "optimal"
        self.assert_same_solution(solve(problem, max_iter=full.iterations), full)

    def test_stalled_solve_reports_the_steps_it_took(self):
        # NH of pd xyz at eps = 0.99 comes within sqrt(tol) of optimal and
        # then stops improving: it stops 10 steps after its best merit
        problem = build_nh_sdp(phase_damping_model(0.99, params="xyz"))[0]
        stalled = solve(problem, tol=1e-9)
        assert stalled.status == "stalled"
        path = [solve(problem, tol=1e-9, max_iter=k) for k in range(stalled.iterations + 1)]
        merits = [max(s.gap, s.primal_infeas, s.dual_infeas) for s in path]
        assert stalled.iterations == int(np.argmin(merits)) + 10
        self.assert_same_solution(path[-1], stalled)

    def test_solve_far_from_optimal_is_not_stalled(self):
        # scaled by 1e-6, the Holevo program's best merit stays above sqrt(tol)
        model = random_model(3, 3, 2)
        model = replace(model, derivs=tuple(1e-6 * dm for dm in model.derivs))
        sol = solve(build_holevo_sdp(model)[0], tol=1e-9, max_iter=60)
        assert (sol.status, sol.iterations) == ("max_iter", 60)

    def test_nan_iterate_is_never_optimal(self, monkeypatch):
        # the optimum of the toy problem with one NaN in Z: gap and primal
        # infeasibility are 0, so max(gap, pinf, dinf) would read 0 here
        monkeypatch.setattr(sdp_core, "_initial_primal", lambda *a: [np.diag([1.0, 0.0])])
        monkeypatch.setattr(
            sdp_core, "_initial_dual", lambda *a: (np.ones(1), [np.diag([0.0, np.nan])])
        )
        sol = solve(toy_problem(), max_iter=0)
        assert (sol.gap, sol.primal_infeas) == (0.0, 0.0) and np.isnan(sol.dual_infeas)
        assert sol.status == "max_iter"

    def test_negative_iteration_count_raises(self):
        with pytest.raises(SDPError, match="max_iter must be >= 0, got -1"):
            solve(toy_problem(), max_iter=-1)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tolerance_not_finite_and_positive_raises(self, tol):
        with pytest.raises(SDPError, match="tol must be finite and positive"):
            solve(toy_problem(), tol=tol)

    def test_without_rows(self):
        problem = make_problem([2], {0: np.eye(2)}, as_entries([]), [])
        sol = solve(problem)
        assert sol.status == "optimal"
        assert abs(sol.primal_obj) <= 1e-7
        assert check_certificate(problem, sol).passed

    # (blocks with a random matrix, blocks with an explicit zero matrix)
    FEW_ROWS = [
        ((0,), ()), ((1,), (0,)), ((2,), ()), ((0, 1), (2,)), ((1, 2), ()),
        ((0, 2), ()), ((0, 1, 2), ()), ((0,), (1, 2)), ((1,), ()),
        ((2,), (1,)), ((0, 1), ()), ((0, 1, 2), ()),
    ]
    # 97 rows, enough for the Newton system to be factored by block: 85
    # touch one block and 12 link two or all three; interleaved
    MANY_ROWS = (
        [((0,), ())] * 28 + [((0,), (1, 2))] * 2 + [((1,), ())] * 40 + [((2,), (1,))] * 15
        + [((0, 1), ()), ((1, 2), (0,)), ((0, 2), ()), ((0, 1, 2), ())] * 3
    )
    MANY_ROWS = list(map(MANY_ROWS.__getitem__, np.random.default_rng(7).permutation(len(MANY_ROWS))))

    @pytest.mark.parametrize(
        "dims, supports", [((3, 4, 2), FEW_ROWS), ((8, 10, 6), MANY_ROWS)], ids=["12 rows", "97 rows"]
    )
    def test_row_classes_match_one_block(self, dims, supports):
        # rows touch one, two or all three blocks; some carry an explicit
        # all-zero matrix in a block they do not constrain
        rng = np.random.default_rng(5)
        cons = []
        for live, zero in supports:
            con = {l: rand_sym(rng, dims[l]) for l in live}
            con.update({l: np.zeros((dims[l], dims[l])) for l in zero})
            cons.append(con)
        y_feas = []
        for d in dims:
            g = rng.standard_normal((d, d))
            y_feas.append(g @ g.T + 0.5 * np.eye(d))
        b = [sum(np.vdot(mat, y_feas[l]) for l, mat in con.items()) for con in cons]
        obj = {}
        for l, d in enumerate(dims):
            g = rng.standard_normal((d, d))
            obj[l] = g @ g.T + 0.1 * np.eye(d)
        problem = make_problem(dims, obj, as_entries(cons), b)
        assert problem.num_constraints == len(cons)
        _, spans = _arrow_order([f.rows for f in _block_formulas(problem)], len(cons))
        links = sum(len(support) > 1 for support, _ in supports)
        assert len(cons) - (spans[-1].stop if spans else 0) == (len(cons) if len(cons) < 96 else links)
        blocked = solve(problem)

        offsets = np.cumsum((0,) + dims)

        def merge(bm):
            out = np.zeros((offsets[-1], offsets[-1]))
            for l, mat in bm.items():
                out[offsets[l] : offsets[l + 1], offsets[l] : offsets[l + 1]] = mat
            return {0: out}

        merged = solve(
            make_problem([offsets[-1]], merge(obj), as_entries([merge(c) for c in cons]), b)
        )
        assert blocked.status == merged.status == "optimal"
        assert blocked.primal_obj == pytest.approx(merged.primal_obj, rel=1e-7)


def whole(mat):
    """The Newton system of one block whose Schur part is `mat`: no groups."""
    n = len(mat)
    return _factor_newton(mat, *_arrow_order([np.arange(n)], n))


def arrow(rows, mat):
    """The Newton system of blocks with rows `rows` whose matrix is `mat`,
    in the rows' own order, factored in block-arrow order."""
    order, spans = _arrow_order(rows, len(mat))
    return _factor_newton(mat[np.ix_(order, order)], order, spans)


def block_arrow(rng, own, links, cond=1.0):
    """Block rows and Schur parts of a Newton system in which block l has
    own[l] rows that touch it alone, and link row k touches the blocks in
    links[k]; rows are numbered in a shuffled order.  Each part is SPD, of
    condition number `cond`."""
    m = sum(own) + len(links)
    label = np.concatenate([np.repeat(np.arange(len(own)), own), np.full(len(links), -1)])
    perm = rng.permutation(m)
    label = label[perm]
    link_of = {int(r): links[k - sum(own)] for r, k in zip(range(m), perm) if k >= sum(own)}
    rows = [np.array([r for r in range(m) if label[r] == l or l in link_of.get(r, ())])
            for l in range(len(own))]
    parts = []
    for r in rows:
        q, _ = np.linalg.qr(rng.standard_normal((len(r), len(r))))
        parts.append((q * np.logspace(0, -np.log10(cond), len(r))) @ q.T)
        parts[-1] = 0.5 * (parts[-1] + parts[-1].T)
    mat = np.zeros((m, m))
    for r, part in zip(rows, parts):
        mat[np.ix_(r, r)] += part
    return rows, parts, mat


def full_factor(system):
    """The lower Cholesky factor that a Newton system holds in pieces, in
    its block-arrow order."""
    n = len(system.order) - len(system.link_inv)
    out = np.zeros((len(system.order),) * 2)
    for at, li, w in system.groups:
        out[at, at] = np.linalg.inv(li)
        out[n:, at] = w
    out[n:, n:] = np.linalg.inv(system.link_inv)
    return out


# blocks with 30, 25, 40 and 20 rows of their own; link rows that touch
# two blocks and all four
ARROW = ((30, 25, 40, 20), [(0, 1), (1, 3), (0, 2), (2, 3), (0, 1, 2, 3), (1, 2), (0, 1, 2, 3)])
# block 1 has no rows of its own: all its rows are link rows
NO_OWN = ((30, 0, 40, 26), [(0, 1), (1, 2), (1, 3), (0, 2, 3), (1, 2), (0, 1, 2, 3)])


class TestNewtonSystem:
    # sizes on both sides of the 96 rows below which the inverse of the
    # factor is numpy's, and of the split of 191 rows into 95 and 96
    @pytest.mark.parametrize(
        "n, cond", [(1, 1.0), (95, 1e6), (96, 1e6), (97, 1e6), (191, 1e6), (200, 1e12), (545, 1e12)]
    )
    def test_refined_solve_is_accurate_when_ill_conditioned(self, n, cond):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mat = (q * np.logspace(0, -np.log10(cond), n)) @ q.T
        mat = 0.5 * (mat + mat.T)
        assert np.linalg.cond(mat) == pytest.approx(cond, rel=0.01)
        system = whole(mat)
        assert not system.groups and np.array_equal(system.order, np.arange(n))
        linv = system.link_inv
        # the inverse of the unjittered factor, to within n eps cond(L)
        lower = np.linalg.cholesky(mat)
        err = np.linalg.norm(linv @ lower - np.eye(n), 2)
        assert err <= n * np.finfo(float).eps * np.linalg.cond(lower)
        rhs = mat @ rng.standard_normal(n)
        x = system.solve(rhs)
        assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_singular_psd_matrix_is_jittered(self):
        a = np.array([1.0, 2.0, 3.0])
        mat = np.outer(a, a)  # rank one, exactly singular
        system = whole(mat)
        lower = np.linalg.inv(system.link_inv)
        shift = lower @ lower.T - mat
        # the factor is of mat plus a small multiple of the identity, and the
        # system records that multiple relative to the largest diagonal entry
        assert np.abs(shift - np.diag(np.diag(shift))).max() <= 1e-12
        assert 0.0 < np.diag(shift).min() and np.diag(shift).max() <= 1e-6 * 9.0
        assert 0.0 < system.jitter <= 1e-6
        assert np.allclose(np.diag(shift), system.jitter * 9.0, rtol=0, atol=1e-12)
        assert whole(mat + np.eye(3)).jitter == 0.0

    def test_indefinite_matrix_is_singular(self):
        with pytest.raises(SDPError, match="numerically singular"):
            whole(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, bad):
        mat = np.eye(3)
        mat[1, 2] = mat[2, 1] = bad
        with pytest.raises(SDPError, match="not finite"):
            whole(mat)

    @pytest.mark.parametrize("own, links", [ARROW, NO_OWN], ids=["arrow", "no own rows"])
    def test_arrow_order_groups_rows_by_block(self, own, links):
        rows, _, mat = block_arrow(np.random.default_rng(19), own, links)
        order, spans = _arrow_order(rows, len(mat))
        assert np.array_equal(np.sort(order), np.arange(len(mat)))
        touched = np.bincount(np.concatenate(rows), minlength=len(mat))
        # one group per block with rows of its own, in block order, ascending
        alone = [r[touched[r] == 1] for r in rows]
        assert [order[at].tolist() for at in spans] == [a.tolist() for a in alone if len(a)]
        assert spans[0].start == 0 and all(a.stop == b.start for a, b in zip(spans, spans[1:]))
        link = order[spans[-1].stop:]
        assert np.array_equal(link, np.flatnonzero(touched > 1))
        assert len(link) == len(links)

    @pytest.mark.parametrize(
        "rows, m", [([np.arange(95), np.arange(90, 95)], 95), ([np.arange(200)], 200), ([], 0)],
        ids=["95 rows", "one block", "no rows"],
    )
    def test_arrow_order_of_small_or_one_block_system_is_identity(self, rows, m):
        order, spans = _arrow_order(rows, m)
        assert np.array_equal(order, np.arange(m)) and spans == []

    def test_arrow_order_groups_from_96_rows(self):
        order, spans = _arrow_order([np.arange(50), np.arange(48, 96)], 96)
        assert [order[at].tolist() for at in spans] == [list(range(48)), list(range(50, 96))]
        assert order[spans[-1].stop:].tolist() == [48, 49]

    @pytest.mark.parametrize("own, links", [ARROW, NO_OWN], ids=["arrow", "no own rows"])
    @pytest.mark.parametrize("cond", [1.0, 1e6])
    def test_block_arrow_system_is_solved_by_groups(self, cond, own, links):
        rng = np.random.default_rng(23)
        rows, _, mat = block_arrow(rng, own, links, cond)
        system = arrow(rows, mat)
        assert [at.stop - at.start for at, _, _ in system.groups] == [k for k in own if k]
        assert len(system.link_inv) == len(links)
        order = system.order
        assert np.allclose(full_factor(system) @ full_factor(system).T, mat[np.ix_(order, order)],
                           rtol=0, atol=1e-12)
        rhs = mat @ rng.standard_normal(len(mat))
        x = system.solve(rhs)
        assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_singular_diagonal_block_is_jittered(self):
        rng = np.random.default_rng(29)
        own, links = ARROW
        rows, parts, mat = block_arrow(rng, own, links)
        # block 1's part is rank one, so its own rows' diagonal block is singular
        a = rng.standard_normal(len(rows[1]))
        parts[1] = np.outer(a, a)
        mat = np.zeros_like(mat)
        for r, part in zip(rows, parts):
            mat[np.ix_(r, r)] += part
        system = arrow(rows, mat)
        lower = full_factor(system)
        shift = lower @ lower.T - mat[np.ix_(system.order, system.order)]
        # the factor is of the whole matrix plus a small multiple of the identity
        scale = np.max(np.diag(mat))
        assert np.abs(shift - np.diag(np.diag(shift))).max() <= 1e-12 * scale
        assert 0.0 < np.diag(shift).min() and np.diag(shift).max() <= 1e-6 * scale
        assert np.ptp(np.diag(shift)) <= 1e-12 * scale

    # numpy's inverse below 96 rows, and from 96 one by 2 x 2 blocks that
    # is written over the factor; 545 rows split three levels deep
    @pytest.mark.parametrize("n", [95, 96, 97, 239, 545])
    def test_factor_inverse_matches_numpy(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        lower = np.linalg.cholesky(a @ a.T + n * np.eye(n))
        expected = np.linalg.inv(lower)
        inv = _tril_inv(lower)
        assert (inv is lower) == (n >= 96)
        assert np.array_equal(inv, np.tril(inv))
        assert np.linalg.norm(inv - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["group", "link"])
    def test_non_finite_grouped_system_raises(self, bad, where):
        own, links = ARROW
        rows, _, mat = block_arrow(np.random.default_rng(31), own, links)
        order, spans = _arrow_order(rows, len(mat))
        mat = mat[np.ix_(order, order)]
        # a diagonal entry of block 2's group, or of a link row
        k = spans[2].start if where == "group" else len(mat) - 1
        mat[k, k] = bad
        with pytest.raises(SDPError, match="not finite"):
            _factor_newton(mat, order, spans)


def dense_rows(problem, l):
    """The constraint matrices of block l, as an (m, d, d) stack over the
    rows that touch the block."""
    store = problem.store
    d = problem.block_dims[l]
    here = store.block == l
    rows, pos = np.unique(store.row[here], return_inverse=True)
    stack = np.zeros((len(rows), d, d), dtype=store.val.dtype)
    stack[pos, store.col[here] // d, store.col[here] % d] = store.val[here]
    return rows, stack


def holevo_programs():
    hb = build_holevo_sdp(interferometer_model(holland_burnett_probe(4), 0.6))[0]
    rnd = build_holevo_sdp(random_model(3, 4, 2))[0]
    return {"hb N=4": hb, "random d=4": rnd, "random d=4 read back": read_sdpa(write_sdpa(rnd))}


def rand_herm(rng, d, dtype):
    a = rng.standard_normal((d, d))
    if dtype == complex:
        a = a + 1j * rng.standard_normal((d, d))
    return 0.5 * (a + a.conj().T)


def check_against_einsum(problem, formula, l=0, seed=11):
    """Block l's formula's Schur part, directions and row maps against einsum
    over the dense rows, at a generic NT scaling of random positive definite
    Y and Z of the problem's dtype, drawn from `seed`."""
    rows, A = dense_rows(problem, l)
    assert np.array_equal(formula.rows, rows)
    rng = np.random.default_rng(seed)
    d = problem.block_dims[l]
    dtype = problem.store.val.dtype
    Y, Z = (g @ g.conj().T + np.eye(d) for g in (rand_herm(rng, d, dtype) for _ in range(2)))
    G = _nt_factor(Y, Z)[0]
    W = G @ G.conj().T
    X = rand_herm(rng, d, dtype)
    v = rng.standard_normal(len(rows))
    WA = np.matmul(W, A)
    Abar = np.matmul(G.conj().T, np.matmul(A, G))
    ref_schur = np.einsum("iab,jba->ij", WA, WA)  # Tr(W A_i W A_j)
    ref_h = np.einsum("iab,ba->i", Abar, X)
    ref_dz = np.tensordot(v, Abar, axes=1)
    schur, apply, adjoint = formula.scaled(G)
    if formula.order is not None:  # the Schur part comes in work order
        ref_schur = ref_schur[np.ix_(formula.order, formula.order)]

    def rel(got, ref):
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    assert rel(schur, ref_schur) <= 1e-12
    assert rel(apply(X), ref_h) <= 1e-12
    assert rel(adjoint(v), ref_dz) <= 1e-12
    assert rel(formula.values(Y), np.einsum("iab,ba->i", A, Y)) <= 1e-12
    assert rel(formula.combination(v), np.tensordot(v, A, axes=1)) <= 1e-12


def check_supports(formula, A):
    """A dense formula's support groups against its rows A, from
    `dense_rows`: they partition its rows, each group's positions ascending,
    and lay out the work stack in group order, each group in its own span;
    they hold the rows, and the nonzeros of the narrow groups' rows are the
    formula's entries; and each row is zero outside the rows of its support,
    which is no wider than it need be."""
    assert "stack" not in type(formula)._fields
    m, d = A.shape[:2]
    assert formula.work.shape == A.shape
    pos = [np.arange(m)[p] for p, *_ in formula.groups]
    order = np.concatenate(pos)
    assert np.array_equal(np.sort(order), np.arange(m))
    assert np.array_equal(order, np.arange(m) if formula.order is None else formula.order)
    ends = np.cumsum([0] + [len(p) for p in pos]).tolist()
    assert [(s.start, s.stop) for *_, s in formula.groups] == list(zip(ends, ends[1:]))
    narrow = np.zeros(A.shape, dtype=A.dtype)
    r, at, val = formula.entries
    narrow.reshape(m, d * d)[r, at] = val
    assert len(r) == np.count_nonzero(narrow)
    for (p, sup, rows, _), here in zip(formula.groups, pos):
        assert np.all(np.diff(here) > 0)
        if sup is None:
            assert np.array_equal(rows, A[p]) and not np.any(narrow[p])
            continue
        assert np.array_equal(rows, A[p[:, None], sup]) and np.array_equal(narrow[p], A[p])
        outside = np.ones((len(p), d), dtype=bool)
        outside[np.arange(len(p))[:, None], sup] = False
        assert not np.any(A[p][outside])
        held = np.any(rows != 0, axis=2).sum(axis=1)
        assert sup.shape[1] < d and np.all(held > sup.shape[1] // 2) or sup.shape[1] == 2


# the models of the pinned program files
PIN_MODELS = {
    "hb N=4": lambda: interferometer_model(holland_burnett_probe(4), 0.6),
    "random d=4": lambda: random_model(3, 4, 2),
    "pd xyz": lambda: phase_damping_model(0.5, "xyz"),
    "ifo": lambda: interferometer_model([0.7**0.5, 0.3**0.5], 0.5),
}


def hermitian_programs():
    return {
        **{k: v for k, v in holevo_programs().items() if k != "random d=4 read back"},
        "pd xyz": build_holevo_sdp(PIN_MODELS["pd xyz"]())[0],
        "ifo": build_holevo_sdp(PIN_MODELS["ifo"]())[0],
    }


class TestSchurFormulas:
    @pytest.mark.parametrize("name", ["hb N=4", "random d=4", "random d=4 read back"])
    def test_factored_rows_match_dense_reference(self, name):
        problem = holevo_programs()[name]
        (formula,) = _block_formulas(problem)
        assert isinstance(formula, _FactoredRows)
        # one cover index per Hermitian row, two per row of its real embedding
        assert formula.pos.shape[1] == (2 if name.endswith("read back") else 1)
        assert formula.cols.dtype == problem.store.val.dtype
        check_against_einsum(problem, formula)

    @pytest.mark.parametrize("case", ["widths 1 to 3", "repeated index", "u = 1", "u = mk", "real widths 1 to 3"])
    def test_factored_covers_match_dense_reference(self, case, monkeypatch):
        # rows E_H B^H + B E_H^H + E_H S E_H^H with B dense, so that the
        # greedy cover of each is H; a row of width 1 beside rows of width 2
        # is padded with index 0, which repeats its own index 0
        monkeypatch.setattr(sdp_core, "_factored_pays", lambda m, d, k, madd: True)
        covers, k, u = {
            "widths 1 to 3": ([[1, 4], [2, 5, 6], [3], [0, 7, 2], [8]], 3, 9),
            "real widths 1 to 3": ([[1, 4], [2, 5, 6], [3], [0, 7, 2], [8]], 3, 9),
            "repeated index": ([[0], [2, 5], [3, 6], [5, 7]], 2, 6),
            "u = 1": ([[4], [4], [4]], 1, 1),
            "u = mk": ([[1, 2], [3, 4], [5, 6]], 2, 6),
        }[case]
        dtype = float if case.startswith("real") else complex
        rng = np.random.default_rng(19)
        d = 9
        cons = []
        for H in covers:
            E = np.eye(d)[:, H]
            B = rng.standard_normal((d, len(H))) + (1j * rng.standard_normal((d, len(H))) if dtype == complex else 0)
            cons.append({0: E @ B.conj().T + B @ E.T + E @ rand_herm(rng, len(H), dtype) @ E.T})
        problem = make_problem([d], {0: np.eye(d)}, as_entries(cons), np.ones(len(cons)))
        (formula,) = _block_formulas(problem)
        assert isinstance(formula, _FactoredRows) and formula.cols.dtype == dtype
        assert formula.pos.shape == (len(covers), k) and len(formula.used) == u
        cover = formula.used[formula.pos]
        for H, row in zip(covers, cover):
            assert set(row) == set(H) | ({0} if len(H) < k else set())
        if case == "repeated index":
            assert list(cover[0]) == [0, 0]
        check_against_einsum(problem, formula)

    @pytest.mark.parametrize("name", ["hb N=4", "random d=4", "random d=4 read back"])
    def test_dense_rows_match_reference(self, name, monkeypatch):
        monkeypatch.setattr(sdp_core, "_factored_pays", lambda m, d, k, madd: False)
        problem = holevo_programs()[name]
        (formula,) = _block_formulas(problem)
        assert isinstance(formula, _DenseRows)
        check_against_einsum(problem, formula)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_congruences_on_row_supports_match_reference(self, dtype, monkeypatch):
        # in a 12-dim block, rows whose supports hold 1 to 12 rows of it;
        # every narrow group is taken, however small its saving
        monkeypatch.setattr(sdp_core, "_factored_pays", lambda m, d, k, madd: False)
        monkeypatch.setattr(sdp_core, "_CALL_MADDS", 0)
        rng = np.random.default_rng(13)
        d = 12
        cons = []
        for s in [1, 2, 3, 5, 7, 12, 1, 4, 6, 9, 11, 2, 8]:
            R = np.sort(rng.choice(d, size=s, replace=False))
            mat = np.zeros((d, d), dtype=dtype)
            mat[np.ix_(R, R)] = rand_herm(rng, s, dtype) + np.eye(s)
            cons.append({0: mat})
        problem = make_problem([d], {0: np.eye(d)}, as_entries(cons), np.ones(len(cons)))
        (formula,) = _block_formulas(problem)
        assert isinstance(formula, _DenseRows)
        check_supports(formula, dense_rows(problem, 0)[1])
        # widths 2, 4 and 8, and the full 12 for supports of 9 rows or more
        assert [(len(pos), None if sup is None else sup.shape[1]) for pos, sup, *_ in formula.groups] == [
            (4, 2), (2, 4), (4, 8), (3, None)]
        check_against_einsum(problem, formula)

    @pytest.mark.parametrize("name", ["hb N=4", "random d=4"])
    def test_nh_congruences_on_row_supports_match_reference(self, name, monkeypatch):
        # with no call overhead counted, the 8-row 6-dim block of hb N=4
        # would be factored
        monkeypatch.setattr(sdp_core, "_factored_pays", lambda m, d, k, madd: False)
        monkeypatch.setattr(sdp_core, "_CALL_MADDS", 0)
        model = {"hb N=4": interferometer_model(holland_burnett_probe(4), 0.6),
                 "random d=4": random_model(3, 4, 2)}[name]
        problem = build_nh_sdp(model)[0]
        for l, formula in enumerate(_block_formulas(problem)):
            check_supports(formula, dense_rows(problem, l)[1])
            assert any(sup is not None for _, sup, *_ in formula.groups)
            check_against_einsum(problem, formula, l)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_multi_group_blocks_match_reference(self, dtype, monkeypatch):
        # two blocks whose rows have supports of 1 to d rows, mixed, so that
        # the groups interleave and the work stack's order is not the rows';
        # each formula is checked at two scalings in turn, which reuse its
        # work stack, and the solve agrees with one at full width
        monkeypatch.setattr(sdp_core, "_factored_pays", lambda m, d, k, madd: False)
        monkeypatch.setattr(sdp_core, "_CALL_MADDS", 0)
        rng = np.random.default_rng(17)
        dims = (10, 7)
        cons = []
        for k in range(30):
            con = {}
            for l, d in enumerate(dims):
                if (k + l) % 3:
                    s = [1, 2, 3, 5, d][k * (l + 1) % 5]
                    R = np.sort(rng.choice(d, size=s, replace=False))
                    con[l] = np.zeros((d, d), dtype=dtype)
                    con[l][np.ix_(R, R)] = rand_herm(rng, s, dtype)
            cons.append(con)
        y_feas, obj = [], {}
        for l, d in enumerate(dims):
            g, h = (rand_herm(rng, d, dtype) for _ in range(2))
            y_feas.append(g @ g.conj().T + np.eye(d))
            obj[l] = h @ h.conj().T + np.eye(d)
        b = [sum(np.vdot(mat, y_feas[l]).real for l, mat in con.items()) for con in cons]
        problem = make_problem(dims, obj, as_entries(cons), b)
        for l, formula in enumerate(_block_formulas(problem)):
            assert isinstance(formula, _DenseRows) and formula.order is not None
            assert len(formula.groups) >= 3
            check_supports(formula, dense_rows(problem, l)[1])
            for seed in (11, 12):
                check_against_einsum(problem, formula, l, seed)
        grouped = solve(problem)
        monkeypatch.setattr(sdp_core, "_CALL_MADDS", 10**12)
        assert all(len(f.groups) == 1 for f in _block_formulas(problem))
        whole = solve(problem)
        assert grouped.status == whole.status == "optimal"
        assert grouped.iterations == whole.iterations
        assert grouped.primal_obj == pytest.approx(whole.primal_obj, rel=1e-9)

    def test_nh_and_small_blocks_keep_dense_formula(self):
        programs = [
            build_nh_sdp(interferometer_model(holland_burnett_probe(4), 0.6))[0],
            build_nh_sdp(random_model(3, 4, 2))[0],
            build_holevo_sdp(phase_damping_model(0.5, "xyz"))[0],
            build_holevo_sdp(interferometer_model([0.7**0.5, 0.3**0.5], 0.5))[0],
        ]
        dims = [d for p in programs for d in p.block_dims]
        assert min(dims) <= 6
        for problem in programs:
            for l, formula in enumerate(_block_formulas(problem)):
                assert isinstance(formula, _DenseRows)
                rows, A = dense_rows(problem, l)
                assert np.array_equal(formula.rows, rows)
                check_supports(formula, A)
                if A.shape[1] <= 16:
                    # too small for a narrow support group to pay: the
                    # whole stack, at full width, in the rows' own order
                    ((pos, sup, whole, span),) = formula.groups
                    assert pos == slice(None) and sup is None and span == slice(0, len(A))
                    assert formula.order is None and np.array_equal(whole, A)

    def test_workload_programs_keep_their_formulas(self):
        # each block's formula, dense (0) or factored with its cover width,
        # for the Holevo and NH programs of the bench workloads at their
        # smallest size and of the model ladder, as built and read back
        # from their files: only the Holevo programs of hb N >= 4 and of
        # random models of dimension 6 or more are factored, one index per
        # row, two once realified
        models = {
            **{f"hb N={n}": interferometer_model(holland_burnett_probe(n), 0.6) for n in (2, 4, 6, 8, 10)},
            **{f"random({s}, {d})": random_model(s, d, 2)
               for s, d in ((1, 2), (2, 3), (1, 3), (1, 6), (1, 8), (2, 8), (3, 10))},
            **{f"pd {p} eps={e}": phase_damping_model(e, p) for p in ("x", "xy", "xyz") for e in (0.0, 0.9)},
            **{f"pd xyz eps={e}": phase_damping_model(e, "xyz") for e in (0.5, 0.99)},
            **{f"ifo eta={e}": interferometer_model([0.7**0.5, 0.3**0.5], e) for e in (0.05, 0.95)},
        }
        factored = {"hb N=4", "hb N=6", "hb N=8", "hb N=10",
                    "random(1, 6)", "random(1, 8)", "random(2, 8)", "random(3, 10)"}
        for name, model in models.items():
            for kind, build in (("holevo", build_holevo_sdp), ("nh", build_nh_sdp)):
                problem = build(model)[0]
                for k, prog in ((1, problem), (2, read_sdpa(write_sdpa(problem)))):
                    got = [f.pos.shape[1] if isinstance(f, _FactoredRows) else 0 for f in _block_formulas(prog)]
                    want = [k] if kind == "holevo" and name in factored else [0] * len(prog.block_dims)
                    assert got == want, (kind, name, k)

    def test_mixed_cover_widths_solve_as_dense(self, monkeypatch):
        # rows of cover width 1 to 3 in a 40-dim block beside a dense 3-dim
        # block: one row holds a single diagonal entry, the rest are
        # E_H B^T + B E_H^T for random H and B
        rng = np.random.default_rng(3)
        dims = (40, 3)
        cons = []
        for i in range(60):
            H = rng.choice(dims[0], size=1 + i % 3, replace=False)
            B = np.zeros((dims[0], len(H)))
            if i:
                B[rng.choice(dims[0], size=5, replace=False)] = rng.standard_normal((5, len(H)))
            E = np.eye(dims[0])[:, H]
            con = {0: E @ B.T + B @ E.T + E @ rand_sym(rng, len(H)) @ E.T}
            if i % 4 == 0:
                con[1] = rand_sym(rng, dims[1])
            cons.append(con)
        y_feas, obj = [], {}
        for l, d in enumerate(dims):
            g, h = rng.standard_normal((2, d, d))
            y_feas.append(g @ g.T + np.eye(d))
            obj[l] = h @ h.T + np.eye(d)
        b = [sum(np.vdot(mat, y_feas[l]) for l, mat in con.items()) for con in cons]
        problem = make_problem(dims, obj, as_entries(cons), b)
        formulas = _block_formulas(problem)
        assert isinstance(formulas[0], _FactoredRows) and isinstance(formulas[1], _DenseRows)
        assert formulas[0].pos.shape[1] == 3
        factored = solve(problem)
        monkeypatch.setattr(sdp_core, "_factored_pays", lambda m, d, k, madd: False)
        dense = solve(problem)
        assert factored.status == dense.status == "optimal"
        assert factored.iterations == dense.iterations
        assert factored.primal_obj == pytest.approx(dense.primal_obj, rel=1e-9)
        assert check_certificate(problem, factored).passed

    def test_large_holevo_solve_builds_no_dense_stack(self):
        # one m x d^2 stack of the 197 rows of this 102-dim complex block
        # is 31 MiB; the factored formula peaked at 14.9 MiB while it formed
        # a (2m) x (2m) product and its elementwise square per iteration
        problem = build_holevo_sdp(random_model(3, 10, 2))[0]
        tracemalloc.start()
        try:
            sol = solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "optimal"
        assert peak <= 11 * 2**20

    def test_large_nh_solve_holds_its_rows_once(self):
        # one realified 60-dim block of 406 rows: its work stack is 11.2 MiB,
        # and a second (m, d, d) stack of the rows, as the dense formula held
        # beside its support groups, took the peak to 38.1 MiB
        problem = build_nh_sdp(random_model(3, 10, 2))[0]
        tracemalloc.start()
        try:
            sol = solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "optimal"
        assert peak <= 28 * 2**20

    def test_scaled_writes_its_congruences_in_place(self):
        # the same block: a group-sized temporary per support group took one
        # call of `scaled` to 9.6 MiB, 0.86 of the work stack
        (formula,) = _block_formulas(build_nh_sdp(random_model(3, 10, 2))[0])
        assert isinstance(formula, _DenseRows) and len(formula.groups) > 1
        d = formula.work.shape[1]
        G = _nt_factor(*(g @ g.T + np.eye(d) for g in np.random.default_rng(5).standard_normal((2, d, d))))[0]
        tracemalloc.start()
        try:
            formula.scaled(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.35 * formula.work.nbytes

    def test_solve_holds_one_newton_system_per_step(self):
        # the same block, m = 406 rows.  Over its work stack, the solve
        # peaks at 5.1 Newton systems of m^2 doubles: the rows' slices
        # (about 2), M, and the block's Gram matrix and its copy in work
        # order.  It read 7.7 while the last step's M and inverse factor
        # lived on as the next step formed its own, and 5.7 with each
        # factor inverted into a new array; the bound sits between
        problem = build_nh_sdp(random_model(3, 10, 2))[0]
        m, (d,) = problem.num_constraints, problem.block_dims
        tracemalloc.start()
        try:
            sol = solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.status == "optimal"
        assert (m, d) == (406, 60)
        assert peak - m * d * d * 8 <= 6.5 * m * m * 8


def sorted_gram(store, m, dims):
    """n and the Gram matrix of `_row_gram`, formed with the sorts of
    np.unique and searchsorted: the reference of its sort-free form."""
    used = [np.unique(store.col[store.block == l]) for l in range(len(dims))]
    gram = np.zeros((m, m))
    for l, cols in enumerate(used):
        here = store.block == l
        rows, r = np.unique(store.row[here], return_inverse=True)
        dense = np.zeros((len(rows), len(cols)), dtype=store.val.dtype)
        dense[r, np.searchsorted(cols, store.col[here])] = store.val[here]
        dense = dense.view(float)
        gram[np.ix_(rows, rows)] += dense @ dense.T
    return sum(map(len, used)) * (2 if np.iscomplexobj(store.val) else 1), gram


class TestMakeProblem:
    def test_dependent_rows_dropped(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        problem = make_problem(
            [2], {0: np.eye(2)},
            as_entries([{0: a}, {0: 2 * a}, {0: np.zeros((2, 2))}]),
            [1.0, 2.0, 0.0],
        )
        assert problem.num_constraints == 1
        assert problem.dropped == 2

    def test_in_order_rule_keeps_first_of_each_dependency(self):
        e11 = np.diag([1.0, 0.0])
        e22 = np.diag([0.0, 1.0])
        x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 1.0]])
        a1 = {0: e11, 1: x}
        a2 = {1: np.eye(3)}
        a3 = {0: e11, 1: x + np.eye(3)}  # a1 + a2
        a4 = {0: e22, 1: x}
        a5 = {0: e11 - e22}  # a1 - a4, only in block 0
        zero = {0: np.zeros((2, 2)), 1: np.zeros((3, 3))}
        problem = make_problem(
            [2, 3], {0: np.eye(2), 1: np.eye(3)},
            as_entries([zero, a1, a2, a3, a4, a5]),
            [0.0, 1.0, 2.0, 3.0, 4.0, -3.0],
            dual_hint=np.arange(6.0),
        )
        assert problem.dropped == 3
        assert problem.b.tolist() == [1.0, 2.0, 4.0]
        assert problem.dual_hint.tolist() == [1.0, 2.0, 4.0]

    def test_kept_rows_match_gram_schmidt_reference(self):
        # the greedy in-order rule, row by row with re-orthogonalisation
        def reference(cons, dims):
            basis, kept = [], []
            for i, con in enumerate(cons):
                row = np.concatenate([
                    con.get(l, np.zeros((d, d))).ravel() for l, d in enumerate(dims)
                ])
                v = row.copy()
                for _ in range(2):
                    for q in basis:
                        v -= (q @ v) * q
                if np.linalg.norm(v) > 1e-10 * max(1.0, np.linalg.norm(row)):
                    basis.append(v / np.linalg.norm(v))
                    kept.append(i)
            return kept

        def check(cons, dims):
            y0 = [np.eye(d) for d in dims]
            b = [sum(np.vdot(mat, y0[l]) for l, mat in con.items()) for con in cons]
            problem = make_problem(dims, {}, as_entries(cons), b, dual_hint=np.arange(len(cons)))
            assert problem.dual_hint.tolist() == [float(i) for i in reference(cons, dims)]

        def flat(con, dims):
            return np.concatenate([con.get(l, np.zeros((d, d))).ravel() for l, d in enumerate(dims)])

        def near(cons, coef, dist, dims):
            """sum(coef * cons) plus a part orthogonal to every row of cons,
            of `dist` times the sum's norm."""
            span = np.stack([flat(con, dims) for con in cons], axis=1)
            w = flat({l: rand_sym(rng, d) for l, d in enumerate(dims)}, dims)
            w -= span @ np.linalg.lstsq(span, w, rcond=None)[0]
            v = span @ coef
            v += dist * np.linalg.norm(v) / np.linalg.norm(w) * w
            split = np.cumsum([d * d for d in dims])[:-1]
            return {l: part.reshape(d, d) for l, (d, part) in enumerate(zip(dims, np.split(v, split)))}

        rng = np.random.default_rng(3)
        dims = (3, 2)
        base = [{l: rand_sym(rng, d) for l, d in enumerate(dims)} for _ in range(4)]
        close = list(base)
        for dist in (1e-5, 1e-9, 1e-11):  # kept, kept, dropped
            close.append(near(close, rng.standard_normal(len(close)), dist, dims))
        tiny = {0: 1e-12 * rand_sym(rng, 3)}
        zero = {1: np.zeros((2, 2))}
        for cons in (
            close + [tiny, zero],
            base,  # certified by the Gram matrix
            [{1: rand_sym(rng, 2)} for _ in range(5)],  # 5 rows on 4 used columns
            [zero, zero],
        ):
            check(cons, dims)
        for trial in range(5):
            cons = []
            for _ in range(14):
                pick = rng.random()
                if cons and pick < 0.4:
                    coef = rng.standard_normal(len(cons)) * (rng.random(len(cons)) < 0.5)
                    cons.append({
                        l: sum(c * con.get(l, np.zeros((d, d))) for c, con in zip(coef, cons))
                        for l, d in enumerate(dims)
                    })
                elif pick < 0.5:
                    cons.append({0: np.zeros((3, 3))})
                else:
                    blocks = [l for l in range(2) if rng.random() < 0.7] or [trial % 2]
                    cons.append({l: rand_sym(rng, dims[l]) for l in blocks})
            check(cons, dims)

    def test_builder_rows_are_certified_without_qr(self, monkeypatch):
        # the Holevo and NH programs of the bench ladder (seed 1) and the
        # program files of its file-verify workload (seeds 1 to 3), read back
        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        models = [interferometer_model(holland_burnett_probe(n), 0.6) for n in (4, 6, 8, 10)]
        models += [random_model(1 + k, d, 2) for k, d in enumerate((6, 8, 10))]
        programs = [build(m)[0] for m in models for build in (build_holevo_sdp, build_nh_sdp)]
        files = [interferometer_model(holland_burnett_probe(8), 0.6), phase_damping_model(0.5, "xyz")]
        files += [random_model(seed, 8, 2) for seed in (1, 2, 3)]
        for m in files:
            for build in (build_holevo_sdp, build_nh_sdp):
                programs.append(read_sdpa(write_sdpa(build(m)[0])))
        for problem in programs:
            assert problem.dropped == 0
            m = problem.num_constraints
            n, gram = _row_gram(problem.store, m, problem.block_dims)
            ref_n, ref = sorted_gram(problem.store, m, problem.block_dims)
            assert n == ref_n and gram.tobytes() == ref.tobytes()

    def test_dependent_row_is_not_certified(self, monkeypatch):
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: qr_calls.append(1) or qr(*a, **k))
        cons = [{0: np.diag([1.0, 0.0])}, {0: np.diag([0.0, 1.0])}]
        assert make_problem([2], {}, as_entries(cons), [1.0, 1.0]).dropped == 0
        assert not qr_calls
        cons.append({0: np.eye(2)})
        assert make_problem([2], {}, as_entries(cons), [1.0, 1.0, 2.0]).dropped == 1
        assert qr_calls

    def test_rejects_block_dims_too_large_for_entry_keys(self):
        with pytest.raises(SDPError, match="too large: entry keys overflow int64"):
            make_problem([10**10], {}, ([0], [0], [0], [0], [1.0]), [1.0])

    def test_store_holds_both_triangles_in_file_order(self):
        problem = two_block_problem()
        assert problem.dropped == 1
        assert problem.b.tolist() == [1.0, 2.0, 3.0]
        # row 2 (twice row 0) is gone and row 3 is now row 2; the explicit
        # zero block and the zero entries leave nothing behind
        store = problem.store
        assert store.row.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
        assert store.block.tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 1, 1]
        assert store.col.tolist() == [0, 1, 2, 2, 6, 8, 0, 3, 1, 3]
        assert store.val.tolist() == [1.0, 2.0, 2.0, 3.0, 3.0, -1.0, 1.0, 1.0, 1.0, 1.0]

    def test_inconsistent_dependent_row_raises(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        with pytest.raises(SDPError, match="infeasible at construction"):
            make_problem([2], {0: np.eye(2)}, as_entries([{0: a}, {0: 2 * a}]), [1.0, 3.0])

    def test_rejects_asymmetric(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SDPError, match="not symmetric"):
            make_problem([2], {0: bad}, as_entries([]), [])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SDPError):
            make_problem([3], {0: np.eye(2)}, as_entries([]), [])

    @pytest.mark.parametrize(
        "dims, objective, dual_hint, message",
        [
            ([2, 0], {}, None, r"block dims must be positive, got \(2, 0\)"),
            ([2], {1: np.eye(2)}, None, "objective references unknown block 1"),
            ([2], {0: np.eye(2)}, [1.0, 2.0], "dual hint length must match the original constraint count"),
        ],
        ids=["zero dimension", "unknown block", "dual hint length"],
    )
    def test_rejects_bad_dims_objective_or_dual_hint(self, dims, objective, dual_hint, message):
        with pytest.raises(SDPError, match=f"^{message}$"):
            make_problem(dims, objective, as_entries([{0: np.eye(2)}]), [1.0], dual_hint=dual_hint)

    @pytest.mark.parametrize(
        "entry, match",
        [
            ((0, 0, 1, 0, 1.0), "lower-triangle"),
            ((0, 2, 0, 0, 1.0), "block out of range"),
            ((0, -1, 0, 0, 1.0), "block out of range"),
            ((2, 0, 0, 0, 1.0), "row out of range"),
            ((-1, 0, 0, 0, 1.0), "row out of range"),
            ((0, 1, 0, 3, 1.0), "exceeds the block dimension"),
            ((0, 0, -1, 0, 1.0), "exceeds the block dimension"),
            ((1, 1, 0, 2, 0.0), "duplicate entry for row 1 block 1 \\(0, 2\\)"),
            ((0, 0, 0, 1, np.nan), "not finite"),
            ((0, 0, 0, 1, -np.inf), "not finite"),
        ],
    )
    def test_rejects_bad_entry(self, entry, match):
        good = [(0, 0, 0, 0, 1.0), (1, 1, 0, 2, 2.0), (1, 0, 1, 1, 1.0)]
        entries = tuple(np.array(col) for col in zip(*good, entry))
        with pytest.raises(SDPError, match=match):
            make_problem([2, 3], {}, entries, [1.0, 2.0])
        # the good entries alone are a valid problem
        make_problem([2, 3], {}, tuple(np.array(col) for col in zip(*good)), [1.0, 2.0])

    def test_rejects_complex_diagonal_entry(self):
        entries = ([0, 0], [0, 0], [0, 1], [1, 1], [1j, 1.0 + 1e-300j])
        with pytest.raises(SDPError, match=r"^entry 1 \(row 0, block 0, \(1, 1\)\): diagonal entry value "
                                           r"'\(1\+1e-300j\)' is not real$"):
            make_problem([2], {}, entries, [1.0])
        # an off-diagonal entry may be complex, and makes the program Hermitian
        problem = make_problem([2], {}, entries[:4] + ([1j, 1.0],), [1.0])
        assert problem.store.val.tolist() == [1j, -1j, 1.0]

    @pytest.mark.parametrize("where", ["objective", "primal hint"])
    def test_rejects_non_hermitian_complex_matrix(self, where):
        # complex symmetric, so only a check against the conjugate transpose fails it
        bad = np.array([[1.0, 1j], [1j, 1.0]])
        good = np.array([[1.0, 1j], [-1j, 2.0]])
        obj, hint = (bad, good) if where == "objective" else (good, bad)
        with pytest.raises(SDPError, match=f"^{where} block 0 is not Hermitian$"):
            make_problem([2], {0: obj}, as_entries([{0: np.eye(2)}]), [1.0], primal_hint=(hint,))
        problem = make_problem([2], {0: good}, as_entries([{0: np.eye(2)}]), [1.0], primal_hint=(good,))
        assert np.array_equal(problem.objective[0], good)

    def test_out_of_range_entry_before_the_entry_it_clips_onto(self):
        # row -1 shares its duplicate-check key with the row-0 entry after it
        entries = ([-1, 0], [0, 0], [0, 0], [0, 0], [1.0, 1.0])
        with pytest.raises(SDPError, match=r"^entry 0 \(row -1, .*: row out of range"):
            make_problem([2], {}, entries, [1.0])

    def test_rejects_entry_without_rows_or_blocks(self):
        entries = ([0], [0], [0], [0], [1.0])
        with pytest.raises(SDPError, match="row out of range"):
            make_problem([2], {}, entries, [])
        with pytest.raises(SDPError, match="block out of range"):
            make_problem([], {}, entries, [1.0])

    def test_rejects_entry_arrays_of_unequal_length(self):
        with pytest.raises(SDPError, match="differ in length"):
            make_problem([2], {}, ([0], [0], [0], [0, 1], [1.0]), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_numbers(self, bad):
        rows = as_entries([{0: np.eye(2)}])
        with pytest.raises(SDPError, match="b has non-finite"):
            make_problem([2], {0: np.eye(2)}, rows, [bad])
        with pytest.raises(SDPError, match="^objective block 0 has non-finite entries$"):
            make_problem([2], {0: np.diag([1.0, bad])}, rows, [1.0])
        with pytest.raises(SDPError, match="not finite"):
            make_problem([2], {0: np.eye(2)}, as_entries([{0: np.diag([1.0, bad])}]), [1.0])
        with pytest.raises(SDPError, match="scale must be finite"):
            make_problem([2], {0: np.eye(2)}, rows, [1.0], scale=bad)
        with pytest.raises(SDPError, match="dual hint has non-finite"):
            make_problem([2], {0: np.eye(2)}, rows, [1.0], dual_hint=[bad])

    @pytest.mark.parametrize("bad", [[1.0 + 1j], np.array([1.0 + 0j])], ids=["list", "array"])
    def test_rejects_complex_right_hand_side_and_dual_hint(self, bad):
        # an array is not cut to its real part, and a list does not raise TypeError
        rows = as_entries([{0: np.eye(2)}])
        with pytest.raises(SDPError, match="^b is complex$"):
            make_problem([2], {0: np.eye(2)}, rows, bad)
        with pytest.raises(SDPError, match="^dual hint is complex$"):
            make_problem([2], {0: np.eye(2)}, rows, [1.0], dual_hint=bad)

    @pytest.mark.parametrize("hint", [(np.eye(2), np.eye(3)), ()], ids=["extra block", "no block"])
    def test_rejects_primal_hint_of_another_block_count(self, hint):
        with pytest.raises(SDPError, match=f"^primal hint has {len(hint)} blocks for 1$"):
            make_problem([2], {0: np.eye(2)}, as_entries([{0: np.eye(2)}]), [1.0], primal_hint=hint)


class TestCertificate:
    def test_optimal_passes(self):
        problem = toy_problem()
        sol = solve(problem)
        assert check_certificate(problem, sol).passed

    def test_perturbed_primal_fails_psd(self):
        import dataclasses

        problem = toy_problem()
        sol = solve(problem)
        bad = tuple(blk - 1e-3 * np.eye(blk.shape[0]) for blk in sol.primal)
        perturbed = dataclasses.replace(sol, primal=bad)
        report = check_certificate(problem, perturbed)
        assert not report.checks["primal_psd"]
        assert not report.passed


    def test_perturbed_complex_primal_fails(self):
        import dataclasses

        problem = holevo_programs()["hb N=4"]
        sol = solve(problem)
        assert np.iscomplexobj(sol.primal[0])
        assert check_certificate(problem, sol).passed
        d = problem.block_dims[0]
        # an imaginary Hermitian change moves the rows with imaginary entries
        skew = np.zeros((d, d), dtype=complex)
        skew[0, -1], skew[-1, 0] = 1e-3j, -1e-3j
        for bad, failed in ((sol.primal[0] - 1e-3 * np.eye(d), "primal_psd"),
                            (sol.primal[0] + skew, "primal_feasible")):
            report = check_certificate(problem, dataclasses.replace(sol, primal=(bad,)))
            assert not report.checks[failed]
            assert not report.passed


def hermitian_two_block_problem():
    """Two Hermitian blocks, of dimensions 2 and 3, with complex, real and
    diagonal rows, a row twice another (dropped), and both hints."""
    rng = np.random.default_rng(5)

    def sparse(d):
        h = rand_herm(rng, d, complex)
        h[rng.random((d, d)) < 0.4] = 0.0
        return 0.5 * (h + h.conj().T)

    a, c = sparse(2), sparse(3)
    cons = [{0: a, 1: c}, {1: np.diag([1.0, 0.0, -2.0])}, {0: 2 * a, 1: 2 * c},
            {0: rand_sym(rng, 2), 1: sparse(3)}]
    return make_problem(
        [2, 3],
        {0: sparse(2), 1: sparse(3)},
        as_entries(cons),
        [1.0, 2.0, 2.0, -0.5],
        scale=-1.0,
        primal_hint=(np.eye(2), np.eye(3) + sparse(3) / 10),
        dual_hint=[0.5, -1.0, 0.0, 2.0],
    )


def realified_cases():
    return {"two blocks": hermitian_two_block_problem(), **hermitian_programs()}


class TestRealified:
    @pytest.mark.parametrize("name", ["two blocks", "hb N=4", "random d=4", "pd xyz", "ifo"])
    def test_each_row_is_the_realify_of_its_hermitian_row(self, name):
        problem = realified_cases()[name]
        real = realified(problem)
        assert real.block_dims == tuple(2 * d for d in problem.block_dims)
        assert real.store.val.dtype == float and np.all(real.store.val != 0)
        order = np.lexsort((real.store.col, real.store.block, real.store.row))
        assert np.array_equal(order, np.arange(len(order)))
        for l in range(len(problem.block_dims)):
            rows, herm = dense_rows(problem, l)
            real_rows, emb = dense_rows(real, l)
            assert np.array_equal(real_rows, rows)
            assert np.array_equal(emb, [realify(h) for h in herm])
        for l, mat in problem.objective.items():
            assert np.array_equal(real.objective[l], realify(mat))
        assert np.array_equal(real.b, 2 * problem.b)
        assert real.scale == problem.scale / 2
        assert real.dropped == problem.dropped

    def test_carries_the_hints_and_dropped_rows(self):
        problem = hermitian_two_block_problem()
        assert problem.dropped == 1 and problem.num_constraints == 3
        real = realified(problem)
        assert real.dropped == 1 and real.num_constraints == 3
        assert np.array_equal(real.dual_hint, [0.5, -1.0, 2.0])
        for got, want in zip(real.primal_hint, problem.primal_hint):
            assert np.array_equal(got, realify(want))

    @pytest.mark.parametrize("name", ["two blocks", "hb N=4", "random d=4", "pd xyz", "ifo"])
    def test_equals_its_file(self, name):
        problem = realified_cases()[name]
        real, back = realified(problem), read_sdpa(write_sdpa(problem))
        assert back.block_dims == real.block_dims
        assert np.array_equal(back.b, real.b)
        assert back.scale == real.scale
        for got, want in zip(back.store, real.store):
            assert np.array_equal(got, want)
        assert back.objective.keys() == real.objective.keys()
        for l, mat in real.objective.items():
            assert np.array_equal(back.objective[l], mat)


def hermitian_nh_program(name):
    """The Hermitian NH program of a pinned model, before `_assemble_nh`
    hands out its real embedding."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bound_builders, "realified", lambda problem: problem)
        return build_nh_sdp(PIN_MODELS[name]())[0]


def hermitian_form_cases():
    return {**realified_cases(), **{f"nh {name}": hermitian_nh_program(name) for name in PIN_MODELS}}


def without_hints(problem):
    return replace(problem, primal_hint=None, dual_hint=None)


def assert_same_program(got, want):
    """Equal dims, b, scale, objective and store arrays, exactly."""
    assert got.block_dims == want.block_dims
    assert np.array_equal(got.b, want.b) and got.scale == want.scale
    assert got.objective.keys() == want.objective.keys()
    for l, mat in want.objective.items():
        assert np.array_equal(got.objective[l], mat)
    for a, b in zip(got.store, want.store):
        assert np.array_equal(a, b)


def nudged_file(problem, pick):
    """`problem` read back from its file, after the value of the first entry
    line of block 1 that `pick(matno, i, j, n)` selects (1-based indices, n
    the Hermitian dimension) is moved by one unit in the last place."""
    lines = write_sdpa(problem).splitlines()
    n = problem.block_dims[0]
    for k, line in enumerate(lines[5:], 5):
        matno, blk, i, j, v = line.split()
        if blk == "1" and pick(int(matno), int(i), int(j), n):
            lines[k] = f"{matno} {blk} {i} {j} {float(np.nextafter(float(v), np.inf))!r}"
            return read_sdpa("\n".join(lines) + "\n")
    raise AssertionError("no entry line to nudge")


class TestHermitianForm:
    @pytest.mark.parametrize("name", ["two blocks", "hb N=4", "random d=4", "pd xyz", "ifo",
                                      "nh hb N=4", "nh random d=4", "nh pd xyz", "nh ifo"])
    def test_inverts_realified(self, name):
        problem = hermitian_form_cases()[name]
        real = without_hints(realified(problem))
        herm = hermitian_form(real)
        assert herm.store.val.dtype == complex
        assert herm.dropped == problem.dropped and herm.primal_hint is None and herm.dual_hint is None
        assert_same_program(herm, problem)
        assert_same_program(realified(herm), real)

    @pytest.mark.parametrize("name", ["hb N=4", "random d=4", "pd xyz", "ifo"])
    @pytest.mark.parametrize("kind", ["holevo", "nh"])
    def test_reads_the_hermitian_program_from_its_file(self, name, kind):
        problem = hermitian_form_cases()[name if kind == "holevo" else f"nh {name}"]
        written = build_holevo_sdp if kind == "holevo" else build_nh_sdp
        back = read_sdpa(write_sdpa(written(PIN_MODELS[name]())[0]))
        assert_same_program(hermitian_form(back), problem)

    def test_none_for_a_complex_program(self):
        assert hermitian_form(without_hints(hermitian_programs()["hb N=4"])) is None

    def test_none_for_an_odd_block_dimension(self):
        # the identity of even dimension commutes with J
        even = make_problem([2], {0: np.eye(2)}, as_entries([]), [])
        assert hermitian_form(even).block_dims == (1,)
        odd = make_problem([2, 3], {0: np.eye(2), 1: np.eye(3)}, as_entries([]), [])
        assert hermitian_form(odd) is None

    def test_none_for_a_program_with_a_hint(self):
        real = realified(hermitian_programs()["hb N=4"])
        assert real.primal_hint is not None and real.dual_hint is not None
        assert hermitian_form(replace(real, primal_hint=None)) is None
        assert hermitian_form(replace(real, dual_hint=None)) is None
        assert hermitian_form(without_hints(real)) is not None

    def test_none_for_a_real_program(self):
        problem, _, _ = random_kkt_problem(23, dims=(4, 2), m=5)
        assert hermitian_form(problem) is None

    @pytest.mark.parametrize("where, pick", [
        # -Im H_ij, whose twin Im H_ij in the bottom-left is not moved
        ("top-right", lambda matno, i, j, n: matno > 0 and i <= n < j),
        # Re H_ij a second time, whose twin in the top-left is not moved
        ("bottom-right", lambda matno, i, j, n: matno > 0 and n < i <= j),
        ("objective", lambda matno, i, j, n: matno == 0),
    ])
    def test_none_for_one_entry_changed(self, where, pick):
        problem = hermitian_programs()["hb N=4"]
        assert hermitian_form(read_sdpa(write_sdpa(problem))) is not None
        assert hermitian_form(nudged_file(problem, pick)) is None


class TestSdpaFormat:
    def test_round_trip_exact(self):
        problem, _, _ = random_kkt_problem(23, dims=(4, 2), m=5)
        text = write_sdpa(problem)
        back = read_sdpa(text)
        assert write_sdpa(back) == text
        assert back.block_dims == problem.block_dims
        assert np.array_equal(back.b, problem.b)
        assert back.scale == problem.scale
        for got, want in zip(back.store, problem.store):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("hb N=4", "a4f8a3f62b0ff13b268036bba4829f74d22bfeb89f8d1e0b4cac3a850c9c1c69"),
            ("random d=4", "d891944c692f1cd4d07430b87369b09eb4917bee34833a59f5ea6f053ff3388a"),
            ("pd xyz", "1744c54a2eaaec4713ec230fd08068180ce2f73352653ca485de1cd445f95629"),
            ("ifo", "e808f671825fc62a29756b1edc83b3da5900d3951d472d3700e1ba99287d47de"),
        ],
    )
    def test_hermitian_program_file_is_pinned(self, name, digest):
        # the text of each Holevo program, whose constant term is the SLD
        # estimator: a Hermitian program is written as its real embedding
        problem = hermitian_programs()[name]
        assert np.iscomplexobj(problem.store.val)
        assert hashlib.sha256(write_sdpa(problem).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("hb N=4", "5526c04d1c6d5a03c3cedd8a559db638d86d796bfe652278786034bb9db08325"),
            ("random d=4", "23e5ea4e8f17881f6ac24939962985fd1875fecf69432f5456d1a4aaf1dcb074"),
            ("pd xyz", "8cbb28cdb2768ae945a599de474a8da6d83f19e4c88c559f354d60f94144faa2"),
            ("ifo", "11e04b33ae25c24e29b5a249c9ad687b6de95e72d497051a4ee56933384ba9fb"),
        ],
    )
    def test_nh_program_file_is_pinned(self, name, digest):
        # the text of each NH program as it was before NH was built Hermitian:
        # the real program that the solver gets must not change
        problem = build_nh_sdp(PIN_MODELS[name]())[0]
        assert hashlib.sha256(write_sdpa(problem).encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["hb N=4", "random d=4", "pd xyz", "ifo"])
    def test_hermitian_program_solves_like_its_file(self, name):
        problem = hermitian_programs()[name]
        back = read_sdpa(write_sdpa(problem))
        assert not np.iscomplexobj(back.store.val)
        assert back.block_dims == tuple(2 * d for d in problem.block_dims)
        assert np.array_equal(back.b, 2 * problem.b)
        # the file keeps no hints, so its solve starts elsewhere: a tolerance
        # of 1e-10 on the gap brings both values within 1e-9 of the optimum
        sols = [solve(p, tol=1e-10) for p in (problem, back)]
        assert [s.status for s in sols] == ["optimal", "optimal"]
        assert sols[1].dual_obj == pytest.approx(sols[0].dual_obj, rel=1e-9)  # the Holevo value
        for p, s in zip((problem, back), sols):
            assert check_certificate(p, s).passed

    def test_golden_text(self):
        # objective first, then the rows in store order, upper triangles only
        assert write_sdpa(two_block_problem()) == (
            "* scale 0.5\n3\n2\n2 3\n1.0 2.0 3.0\n"
            "0 1 1 1 1.0\n0 1 1 2 -0.25\n0 2 1 1 0.5\n0 2 3 3 2.0\n"
            "1 1 1 1 1.0\n1 1 1 2 2.0\n"
            "2 2 1 3 3.0\n2 2 3 3 -1.0\n"
            "3 1 1 1 1.0\n3 1 2 2 1.0\n3 2 1 2 1.0\n"
        )

    def test_golden_text_of_hard_floats(self):
        # each float as its repr: -0.0 and 0.0 apart, though equal as floats,
        # and -2.5 in the objective, b and the rows alike
        row0 = np.zeros((3, 3))
        row0[0, 0], row0[0, 2] = 1e16, 5e-324
        row1 = np.zeros((3, 3))
        row1[1, 1], row1[1, 2] = -2.5, 0.1 + 0.2
        row2 = np.zeros((3, 3))
        row2[2, 2] = 1e-05
        objective = np.array([[-2.5, 1e-05, 0.0], [1e-05, 0.1 + 0.2, 0.0], [0.0, 0.0, 0.0]])
        problem = make_problem([3], {0: objective}, as_entries([{0: row0}, {0: row1}, {0: row2}]),
                               [-0.0, 0.0, -2.5])
        text = (
            "* scale 1.0\n3\n1\n3\n-0.0 0.0 -2.5\n"
            "0 1 1 1 -2.5\n0 1 1 2 1e-05\n0 1 2 2 0.30000000000000004\n"
            "1 1 1 1 1e+16\n1 1 1 3 5e-324\n"
            "2 1 2 2 -2.5\n2 1 2 3 0.30000000000000004\n"
            "3 1 3 3 1e-05\n"
        )
        assert write_sdpa(problem) == text
        back = read_sdpa(text)
        assert back.b.tobytes() == np.array([-0.0, 0.0, -2.5]).tobytes()
        assert write_sdpa(back) == text

    def test_line_ends_whitespace_and_comments(self):
        # CRLF, a lone CR and a U+2028 end lines as str.splitlines ends them;
        # tabs, spaces, whitespace-only and comment lines come between entries
        problem = two_block_problem()
        clean = write_sdpa(problem)
        head, entries = clean.splitlines()[:5], clean.splitlines()[5:]
        messy = [f" {line}\t " for line in head]
        for k, line in enumerate(entries):
            messy.append("\t" + line.replace(" ", " \t ") + "  ")
            messy.append(["", " \t ", "* a comment", '  " another'][k % 4])
        ends = ["\r\n", "\r", "\u2028"]
        text = "".join(line + ends[k % 3] for k, line in enumerate(messy))
        back, want = read_sdpa(text), read_sdpa(clean)
        assert_same_program(back, want)
        assert write_sdpa(back) == clean
        # a lower-triangle entry of the objective or of a row, on physical
        # line n as str.splitlines counts lines
        for k in (1, 5):
            bad = entries[k].split()
            bad[2], bad[3] = bad[3], bad[2]
            n = 5 + 2 * k + 1
            lines = list(messy)
            lines[n - 1] = "  " + " ".join(bad) + "\t"
            text = "".join(line + ends[e % 3] for e, line in enumerate(lines))
            # counting "\n" alone would number the line otherwise
            assert text.splitlines()[n - 1] == lines[n - 1]
            assert text[: text.index(lines[n - 1])].count("\n") + 1 != n
            with pytest.raises(SDPAFormatError, match=f"^line {n}: lower-triangle entry"):
                read_sdpa(text)

    def test_write_peaks_below_read(self):
        # the random d=8 Holevo file of the file-verify workload, 31,883
        # lines: reading it peaked at 12.6 MiB while the lines were held
        # into `make_problem`, and the per-line writer at 6.0 MiB
        text = write_sdpa(build_holevo_sdp(random_model(1, 8, 2))[0])
        peaks = []
        for step in (lambda: read_sdpa(text), lambda: write_sdpa(problem)):
            tracemalloc.start()
            try:
                problem = step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert problem == text
        read_peak, write_peak = peaks
        assert write_peak < read_peak <= 11 * 2**20
        assert write_peak <= 5.5 * 2**20

    def test_round_trip_without_rows(self):
        problem = make_problem([2], {0: np.eye(2)}, as_entries([]), [])
        text = write_sdpa(problem)
        back = read_sdpa(text)
        assert back.num_constraints == 0
        assert write_sdpa(back) == text
        assert np.array_equal(back.objective[0], problem.objective[0])
        for got, want in zip(back.store, problem.store):
            assert np.array_equal(got, want)

    def test_hand_written_toy(self):
        text = "\n".join(["1", "1", "2", "1.0", "0 1 1 1 1.0", "0 1 2 2 1.0", "1 1 1 1 1.0"]) + "\n"
        problem = read_sdpa(text)
        sol = solve(problem)
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)

    def test_scale_comment_round_trip(self):
        text = "* scale 0.5\n1\n1\n2\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n"
        problem = read_sdpa(text)
        assert problem.scale == 0.5

    def test_index_out_of_range_names_line(self):
        text = "1\n1\n2\n1.0\n1 1 3 3 1.0\n"
        with pytest.raises(SDPAFormatError, match="line 5"):
            read_sdpa(text)

    def test_lower_triangle_rejected(self):
        text = "1\n1\n2\n1.0\n1 1 2 1 1.0\n"
        with pytest.raises(SDPAFormatError, match="upper triangle"):
            read_sdpa(text)

    def test_duplicate_entry_rejected(self):
        text = "1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n"
        with pytest.raises(SDPAFormatError, match="duplicate"):
            read_sdpa(text)

    def test_diagonal_block_coding(self):
        text = "1\n1\n-2\n1.0\n0 1 1 1 3.0\n0 1 2 2 4.0\n1 1 1 1 1.0\n"
        problem = read_sdpa(text)
        assert problem.block_dims == (2,)
        assert np.array_equal(problem.objective[0], np.diag([3.0, 4.0]))
        with pytest.raises(SDPAFormatError, match="off-diagonal"):
            read_sdpa("1\n1\n-2\n1.0\n0 1 1 2 3.0\n")

    def test_explicit_zero_entry_is_not_stored(self):
        head = "2\n1\n2\n1.0 2.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n"
        plain = read_sdpa(head + "2 1 2 2 1.0\n")
        zeros = read_sdpa(head + "1 1 1 2 0.0\n2 1 1 2 -0.0\n2 1 2 2 1.0\n")
        for got, want in zip(zeros.store, plain.store):
            assert np.array_equal(got, want)
        assert write_sdpa(zeros) == write_sdpa(plain)

    def test_diagonal_block_round_trip(self):
        text = (
            "2\n2\n2 -3\n1.0 2.0\n0 1 1 2 0.5\n0 2 3 3 4.0\n"
            "1 1 1 1 1.0\n1 2 2 2 -1.0\n2 2 1 1 1.0\n2 2 3 3 2.0\n"
        )
        problem = read_sdpa(text)
        assert problem.block_dims == (2, 3)
        assert problem.objective[0].tolist() == [[0.0, 0.5], [0.5, 0.0]]
        assert np.array_equal(problem.objective[1], np.diag([0.0, 0.0, 4.0]))
        store = problem.store
        assert store.row.tolist() == [0, 0, 1, 1]
        assert store.block.tolist() == [0, 1, 1, 1]
        assert store.col.tolist() == [0, 4, 0, 8]
        assert store.val.tolist() == [1.0, -1.0, 1.0, 2.0]
        back = read_sdpa(write_sdpa(problem))
        assert write_sdpa(back) == write_sdpa(problem)
        for got, want in zip(back.store, store):
            assert np.array_equal(got, want)
        for l in (0, 1):
            assert np.array_equal(back.objective[l], problem.objective[l])

    @pytest.mark.parametrize(
        "text, line",
        [
            ("* scale nan\n1\n1\n2\n1.0\n1 1 1 1 1.0\n", "line 1: scale 'nan'"),
            ("1\n1\n2\ninf\n1 1 1 1 1.0\n", "line 4: right-hand-side"),
            ("1\n1\n2\n1.0\n0 1 1 1 -inf\n1 1 1 1 1.0\n", "line 5: entry value '-inf'"),
            ("1\n1\n2\n1.0\n1 1 1 2 nan\n", "line 5: entry value 'nan'"),
        ],
    )
    def test_non_finite_number_names_line(self, text, line):
        with pytest.raises(SDPAFormatError, match=f"{line}.* is not finite"):
            read_sdpa(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            # conversion: field count, a non-integer index, a non-number value
            ("2\n1\n2\n1.0 2.0\n0 1 1 1 1.0\n1 1 1 1\n", 6),
            ("2\n1\n2\n1.0 2.0\n0 1 1 1 1.0\n1 1 1.0 1 1.0\n", 6),
            ("2\n1\n2\n1.0 2.0\n1 1 1 1 x\n", 5),
            # ranges of matno, blkno and the indices
            ("2\n1\n2\n1.0 2.0\n0 1 1 1 1.0\n3 1 1 1 1.0\n", 6),
            ("2\n1\n2\n1.0 2.0\n-1 1 1 1 1.0\n", 5),
            ("2\n1\n2\n1.0 2.0\n1 2 1 1 1.0\n", 5),
            ("2\n1\n2\n1.0 2.0\n1 0 1 1 1.0\n", 5),
            ("2\n1\n2\n1.0 2.0\n1 1 1 1 1.0\n1 1 1 3 1.0\n", 6),
            ("2\n1\n2\n1.0 2.0\n1 1 0 1 1.0\n", 5),
            # the upper triangle, and the diagonal of a diagonal block
            ("2\n1\n2\n1.0 2.0\n1 1 1 1 1.0\n1 1 2 1 1.0\n", 6),
            ("1\n1\n-2\n1.0\n0 1 1 1 3.0\n0 1 1 2 3.0\n", 6),
            # a duplicate is named at its later line
            ("2\n1\n2\n1.0 2.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n0 1 1 1 2.0\n", 7),
            ("2\n1\n2\n1.0 2.0\n1 1 1 2 1.0\n2 1 1 1 1.0\n1 1 1 2 3.0\n", 7),
            # numpy's parser takes no digit grouping, where Python's float does
            ("2\n1\n2\n1.0 2.0\n1 1 1 1 1_0\n", 5),
            # with several bad lines, the first is named
            ("2\n1\n2\n1.0 2.0\n1 1 2 1 1.0\n1 1 1 x 1.0\n", 5),
            ("1\n1\n-2\n1.0\n0 1 1 2 3.0\n1 1 1 1 nan\n", 5),
            ("1\n1\n-2\n1.0\n1 1 1 1 nan\n0 1 1 2 3.0\n", 5),
            # 40 rows, the last line and one more unconvertible
            *(("40\n1\n2\n" + "1.0 " * 40 + "\n" + "".join(
                "1 1 1 x 1.0\n" if k in (bad, 39) else f"{k + 1} 1 1 1 1.0\n" for k in range(40)
            ), bad + 5) for bad in (0, 1, 17, 38)),
        ],
    )
    def test_bad_entry_names_its_line(self, text, line):
        with pytest.raises(SDPAFormatError, match=f"^line {line}: "):
            read_sdpa(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            # header numbers follow the number rules of entry lines
            ("* scale 1_0\n1\n1\n2\n1_0\n0 1 1 1 1.0\n1 1 1 1 1.0\n", "line 1: bad scale value '1_0'"),
            ("1\n1\n2\n1_0\n0 1 1 1 1.0\n1 1 1 1 1.0\n", "line 4: bad right-hand-side value"),
            ("1\n1\n2\n\u0661\n1 1 1 1 1.0\n", "line 4: bad right-hand-side value"),
            ("1_0\n1\n2\n" + "1.0 " * 10 + "\n", "line 1: constraint count must be an integer"),
            ("1\n1_0\n2\n1.0\n", "line 2: block count must be an integer"),
            ("1\n1\n1_0\n1.0\n", "line 3: bad block dimension '1_0'"),
            # entry keys of this block would overflow int64
            ("1\n1\n10000000000\n1.0\n1 1 1 1 1.0\n", "line 3: block dimension 10000000000 is too large"),
            # the counts of the header's lists, and a zero block
            ("1\n2\n2\n1.0\n", "line 3: expected 2 block dims, got 1"),
            ("1\n2\n2 0\n1.0\n", "line 3: zero block dimension"),
            ("2\n1\n2\n1.0\n", "line 4: expected 2 right-hand-side values, got 1"),
        ],
    )
    def test_bad_header_number_names_its_line(self, text, message):
        with pytest.raises(SDPAFormatError, match=f"^{message}$"):
            read_sdpa(text)

    def test_no_entry_lines(self):
        problem = read_sdpa("0\n1\n2\n")
        assert problem.num_constraints == 0
        assert problem.objective == {}
        assert all(len(a) == 0 for a in problem.store)
        assert write_sdpa(problem) == "* scale 1.0\n0\n1\n2\n"

    def test_truncated_file(self):
        with pytest.raises(SDPAFormatError, match="missing"):
            read_sdpa("2\n1\n")

    def test_bad_count_line(self):
        with pytest.raises(SDPAFormatError, match="line 1"):
            read_sdpa("x\n1\n2\n1.0\n")
