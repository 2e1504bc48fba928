"""Tests for the SDP data structures, solver, certificates, and text I/O."""
import numpy as np
import pytest

from qmbounds.sdp_core import (
    SDPAFormatError,
    SDPError,
    _chol_jittered,
    _solve_refined,
    check_certificate,
    make_problem,
    read_sdpa,
    solve,
    write_sdpa,
)


def rand_sym(rng, d):
    a = rng.standard_normal((d, d))
    return 0.5 * (a + a.T)


def toy_problem():
    # minimize trace(Y) over 2x2 PSD Y with Y11 = 1; optimum 1 at diag(1, 0)
    a = np.zeros((2, 2))
    a[0, 0] = 1.0
    return make_problem([2], {0: np.eye(2)}, [{0: a}], [1.0])


def two_block_problem():
    """Rows: both blocks with an explicit zero block 1; block 1 only; twice
    the first (dropped); both blocks, given block 1 first."""
    a0 = np.array([[1.0, 2.0], [2.0, 0.0]])
    a1 = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 0.0], [3.0, 0.0, -1.0]])
    swap = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return make_problem(
        [2, 3],
        {1: np.diag([0.5, 0.0, 2.0]), 0: np.array([[1.0, -0.25], [-0.25, 0.0]])},
        [{0: a0, 1: np.zeros((3, 3))}, {1: a1}, {0: 2 * a0}, {1: swap, 0: np.eye(2)}],
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
    problem = make_problem(dims, obj, cons, b)
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
        base = solve(make_problem([3], obj, cons, [1.0]))
        scaled = solve(make_problem([3], {0: 7 * obj[0]}, cons, [1.0]))
        assert scaled.primal_obj == pytest.approx(7 * base.primal_obj, rel=1e-7)
        assert np.max(np.abs(scaled.primal[0] - base.primal[0])) <= 10 * 1e-8

    def test_scale_factor_applied(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        problem = make_problem([2], {0: np.eye(2)}, [{0: a}], [2.0], scale=0.5)
        sol = solve(problem)
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)

    def test_hints_accepted(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        problem = make_problem(
            [2], {0: np.eye(2)}, [{0: a}], [1.0],
            primal_hint=(np.diag([1.0, 1.0]),), dual_hint=np.array([0.5]),
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)

    def test_weak_duality_in_debug_mode(self):
        problem, _, _ = random_kkt_problem(11, dims=(4,), m=5)
        sol = solve(problem, debug=True)  # per-iteration assert must not fire
        assert sol.status == "optimal"

    def test_infeasible_input_flagged(self):
        # Y11 = 2 together with trace(Y) = 1 forces Y22 = -1: not PSD
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        problem = make_problem(
            [2], {0: np.eye(2)}, [{0: e11}, {0: np.eye(2)}], [2.0, 1.0]
        )
        sol = solve(problem, max_iter=100)
        assert sol.status in ("infeasible_suspect", "max_iter")
        assert sol.status != "optimal"

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

    def test_without_rows(self):
        problem = make_problem([2], {0: np.eye(2)}, [], [])
        sol = solve(problem)
        assert sol.status == "optimal"
        assert abs(sol.primal_obj) <= 1e-7
        assert check_certificate(problem, sol).passed

    def test_row_classes_match_one_block(self):
        # rows touch one, two or all three blocks; some carry an explicit
        # all-zero matrix in a block they do not constrain
        rng = np.random.default_rng(5)
        dims = (3, 4, 2)
        # (blocks with a random matrix, blocks with an explicit zero matrix)
        supports = [
            ((0,), ()), ((1,), (0,)), ((2,), ()), ((0, 1), (2,)), ((1, 2), ()),
            ((0, 2), ()), ((0, 1, 2), ()), ((0,), (1, 2)), ((1,), ()),
            ((2,), (1,)), ((0, 1), ()), ((0, 1, 2), ()),
        ]
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
        blocked = solve(make_problem(dims, obj, cons, b))

        offsets = np.cumsum((0,) + dims)

        def merge(bm):
            out = np.zeros((offsets[-1], offsets[-1]))
            for l, mat in bm.items():
                out[offsets[l] : offsets[l + 1], offsets[l] : offsets[l + 1]] = mat
            return {0: out}

        merged = solve(
            make_problem([offsets[-1]], merge(obj), [merge(c) for c in cons], b)
        )
        assert blocked.status == merged.status == "optimal"
        assert blocked.primal_obj == pytest.approx(merged.primal_obj, rel=1e-7)


class TestNewtonSystem:
    def test_refined_solve_is_accurate_when_ill_conditioned(self):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        mat = (q * np.logspace(0, -12, 200)) @ q.T
        mat = 0.5 * (mat + mat.T)
        assert np.linalg.cond(mat) == pytest.approx(1e12, rel=0.01)
        rhs = mat @ rng.standard_normal(200)
        x = _solve_refined(_chol_jittered(mat), mat, rhs)
        assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_singular_psd_matrix_is_jittered(self):
        a = np.array([1.0, 2.0, 3.0])
        mat = np.outer(a, a)  # rank one, exactly singular
        lower = np.linalg.inv(_chol_jittered(mat))
        shift = lower @ lower.T - mat
        # the factor is of mat plus a small multiple of the identity
        assert np.abs(shift - np.diag(np.diag(shift))).max() <= 1e-12
        assert 0.0 < np.diag(shift).min() and np.diag(shift).max() <= 1e-6 * 9.0

    def test_indefinite_matrix_is_singular(self):
        with pytest.raises(SDPError, match="numerically singular"):
            _chol_jittered(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, bad):
        mat = np.eye(3)
        mat[1, 2] = mat[2, 1] = bad
        with pytest.raises(SDPError, match="not finite"):
            _chol_jittered(mat)


class TestMakeProblem:
    def test_dependent_rows_dropped(self):
        a = np.zeros((2, 2))
        a[0, 0] = 1.0
        problem = make_problem(
            [2], {0: np.eye(2)},
            [{0: a}, {0: 2 * a}, {0: np.zeros((2, 2))}],
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
            [zero, a1, a2, a3, a4, a5],
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

        rng = np.random.default_rng(3)
        dims = (3, 2)
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
            y0 = [np.eye(3), np.eye(2)]
            b = [sum(np.vdot(mat, y0[l]) for l, mat in con.items()) for con in cons]
            problem = make_problem(dims, {}, cons, b, dual_hint=np.arange(14.0))
            assert problem.dual_hint.tolist() == [float(i) for i in reference(cons, dims)]

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
            make_problem([2], {0: np.eye(2)}, [{0: a}, {0: 2 * a}], [1.0, 3.0])

    def test_rejects_asymmetric(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(SDPError, match="not symmetric"):
            make_problem([2], {0: bad}, [], [])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(SDPError):
            make_problem([3], {0: np.eye(2)}, [], [])


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

    def test_golden_text(self):
        # objective first, then the rows in store order, upper triangles only
        assert write_sdpa(two_block_problem()) == (
            "* scale 0.5\n3\n2\n2 3\n1.0 2.0 3.0\n"
            "0 1 1 1 1.0\n0 1 1 2 -0.25\n0 2 1 1 0.5\n0 2 3 3 2.0\n"
            "1 1 1 1 1.0\n1 1 1 2 2.0\n"
            "2 2 1 3 3.0\n2 2 3 3 -1.0\n"
            "3 1 1 1 1.0\n3 1 2 2 1.0\n3 2 1 2 1.0\n"
        )

    def test_round_trip_without_rows(self):
        problem = make_problem([2], {0: np.eye(2)}, [], [])
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

    def test_truncated_file(self):
        with pytest.raises(SDPAFormatError, match="missing"):
            read_sdpa("2\n1\n")

    def test_bad_count_line(self):
        with pytest.raises(SDPAFormatError, match="line 1"):
            read_sdpa("x\n1\n2\n1.0\n")
