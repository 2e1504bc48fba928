"""Tests for the bound builders against closed forms and cross-checks.

Every numeric target here is either a closed-form value for the model
family or an independent evaluation (explicit two-observable formula,
commuting-case trace) computed without going through the SDP.
"""
import dataclasses
import re

import numpy as np
import pytest

from qmbounds.bound_builders import (
    BoundError,
    _quotient_basis,
    build_holevo_sdp,
    build_nh_sdp,
    gellmann_basis,
    holevo_bound,
    nagaoka_explicit_two_obs,
    nagaoka_hayashi_bound,
    nh_u_bound,
    recover_nh_estimators,
)
from qmbounds.model import (
    StatisticalModel,
    holland_burnett_probe,
    interferometer_model,
    phase_damping_model,
    random_model,
    sld_bound,
    state_support,
)
from qmbounds.sdp_core import check_certificate, read_sdpa, solve, write_sdpa


def two_param_dephasing_optimizers(eps):
    """Known optimal estimator pair for the two-parameter dephased family."""
    xx = np.array(
        [[0, -1j, -1j, 0], [1j, 0, 0, 1j], [1j, 0, 0, 1j], [0, -1j, -1j, 0]]
    ) / (2 - eps)
    xy = np.array(
        [[0, -1, -1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 1, 0]],
        dtype=complex,
    ) / (2 - eps)
    return xx, xy


def unbias_residual(model, xs):
    worst = 0.0
    for j, x in enumerate(xs):
        worst = max(
            worst, abs(float(np.trace(model.state @ x).real) - model.theta[j])
        )
        for k, dk in enumerate(model.derivs):
            want = 1.0 if j == k else 0.0
            worst = max(worst, abs(float(np.trace(dk @ x).real) - want))
    return worst


class TestGellmannBasis:
    def test_qubit_basis_is_orthonormal(self):
        b = gellmann_basis(2)
        assert len(b) == 4
        gram = np.array(
            [[np.vdot(p, q).real for q in b] for p in b]
        )
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_identity_comes_first(self):
        b = gellmann_basis(3)
        np.testing.assert_allclose(
            b[0], np.eye(3) / np.sqrt(3), atol=1e-12
        )
        assert len(b) == 9

    def test_all_elements_hermitian(self):
        b = gellmann_basis(4)
        for op in b:
            np.testing.assert_allclose(op, op.conj().T, atol=1e-12)

    def test_support_projection_drops_kernel_block(self):
        # a rank-2 state on a random basis: the quotient basis is built from
        # its support and kernel eigenvectors
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        state = u @ np.diag([0.0, 0.0, 0.3, 0.7]) @ u.conj().T
        (sup,) = state_support(state)
        assert sup.rank == 2
        b = _quotient_basis(sup)
        assert len(b) == 12
        gram = np.array(
            [[np.vdot(p, q).real for q in b] for p in b]
        )
        np.testing.assert_allclose(gram, np.eye(12), atol=1e-12)
        kernel = u[:, :2] @ u[:, :2].conj().T
        for op in b:
            # nothing kept may live entirely inside the kernel corner
            outside = np.max(np.abs(op - kernel @ op @ kernel))
            assert outside > 1e-6

    def test_full_rank_quotient_is_the_whole_basis(self):
        (sup,) = state_support(np.diag([0.2, 0.3, 0.5]).astype(complex))
        for got, want in zip(_quotient_basis(sup), gellmann_basis(3), strict=True):
            assert np.array_equal(got, want)

    def test_dimension_one(self):
        b = gellmann_basis(1)
        assert len(b) == 1
        np.testing.assert_allclose(b[0], [[1.0]], atol=1e-12)


class TestProgramShape:
    def test_compressed_constraint_families(self):
        m = phase_damping_model(0.3, params="xy")
        problem, meta = build_nh_sdp(m)
        assert meta.support_ranks == (2,)
        assert problem.block_dims == (16,)
        assert meta.group_counts == {
            "state_expectation": 2,
            "derivative_expectation": 4,
            "estimator_hermitian": 8,
            "error_block_symmetry": 4,
            "identity_corner": 16,
        }
        assert problem.num_constraints == 34

    def test_block_structure_follows_model_blocks(self):
        m = interferometer_model([np.sqrt(0.7), np.sqrt(0.3)], 0.1)
        problem, meta = build_nh_sdp(m)
        assert meta.block_sizes == (1, 2)
        assert meta.support_ranks == (1, 1)
        assert problem.block_dims == (6, 8)

    def test_full_rank_state_uses_plain_layout(self):
        m = random_model(seed=5, dim=3, num_params=2)
        problem, meta = build_nh_sdp(m)
        n, d = 2, 3
        assert meta.support_ranks == meta.block_sizes == (d,)
        np.testing.assert_array_equal(meta.rotations[0], np.eye(d))
        assert meta.group_counts["estimator_hermitian"] == n * d * d
        assert meta.group_counts["error_block_symmetry"] == n * (n - 1) // 2 * d * d
        assert problem.block_dims == (2 * (2 + 1) * 3,)


@pytest.fixture(scope="module")
def dephasing_xy():
    model = phase_damping_model(0.3, params="xy")
    return model, nagaoka_hayashi_bound(model)


@pytest.fixture(scope="module")
def dephasing_xyz():
    model = phase_damping_model(0.3, params="xyz")
    return model, nagaoka_hayashi_bound(model)


class TestDephasingFamily:
    """Closed forms for the dephased two-qubit family.

    One parameter: 1 for an equatorial direction, 1/(1-eps)^2 for the
    longitudinal one.  Two parameters: 4/(2-eps) separable, 2 collective.
    Three parameters: the two-parameter values plus the longitudinal term.
    """

    def test_single_equatorial_parameter(self):
        r = nagaoka_hayashi_bound(phase_damping_model(0.3, params="x"))
        assert r.value == pytest.approx(1.0, abs=1e-6)

    def test_single_longitudinal_parameter(self):
        r = nagaoka_hayashi_bound(phase_damping_model(0.3, params="z"))
        assert r.value == pytest.approx(1.0 / 0.49, abs=1e-6)

    def test_two_parameter_values(self, dephasing_xy):
        model, r = dephasing_xy
        assert r.value == pytest.approx(4.0 / 1.7, abs=1e-6)
        h = holevo_bound(model)
        assert h.value == pytest.approx(2.0, abs=1e-6)

    def test_two_parameter_values_heavier_damping(self):
        m = phase_damping_model(0.5, params="xy")
        assert nagaoka_hayashi_bound(m).value == pytest.approx(
            8.0 / 3.0, abs=1e-6
        )

    @pytest.mark.parametrize("eps", [0.2, 0.3])
    def test_three_parameter_separable_value(self, eps):
        m = phase_damping_model(eps, params="xyz")
        want = 4.0 / (2.0 - eps) + 1.0 / (1.0 - eps) ** 2
        assert nagaoka_hayashi_bound(m).value == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("eps", [0.3, 0.5])
    def test_three_parameter_collective_value(self, eps):
        m = phase_damping_model(eps, params="xyz")
        want = 2.0 + 1.0 / (1.0 - eps) ** 2
        assert holevo_bound(m).value == pytest.approx(want, abs=1e-6)


class TestResultInvariants:
    def test_status_and_gap(self, dephasing_xy):
        _, r = dephasing_xy
        assert r.kind == "nagaoka_hayashi"
        assert r.solver_stats["status"] == "optimal"
        assert r.gap <= 1e-7

    def test_recovered_estimators_are_unbiased(self, dephasing_xyz):
        model, r = dephasing_xyz
        assert unbias_residual(model, r.X) < 1e-6
        for x in r.X:
            np.testing.assert_allclose(x, x.conj().T, atol=1e-10)

    def test_joint_operator_matrix_is_psd(self, dephasing_xyz):
        _, r = dephasing_xyz
        assert r.solver_stats["schur_min_eig"] >= -1e-7

    def test_value_matches_error_operator_trace(self, dephasing_xyz):
        model, r = dephasing_xyz
        n = len(r.X)
        total = sum(
            float(np.trace(model.state @ r.L[j, k]).real)
            for j in range(n)
            for k in range(n)
            if j == k
        )
        total -= sum(t * t for t in model.theta)
        assert total == pytest.approx(r.value, abs=1e-6)

    def test_error_operator_grid_is_symmetric(self, dephasing_xy):
        _, r = dephasing_xy
        np.testing.assert_allclose(
            r.L[0, 1], r.L[1, 0].conj().T, atol=1e-8
        )

    def test_holevo_result_surface(self, dephasing_xy):
        model, _ = dephasing_xy
        h = holevo_bound(model)
        assert h.kind == "holevo"
        assert h.L is None
        assert unbias_residual(model, h.X) < 1e-6


class TestInterferometer:
    def test_single_photon_lossy_phase_bound(self):
        eta, a1sq = 0.1, 0.3
        m = interferometer_model([np.sqrt(1 - a1sq), np.sqrt(a1sq)], eta)
        want = (1 + 3 * eta - 4 * eta**3) / (4 * eta * a1sq)
        assert nagaoka_hayashi_bound(m).value == pytest.approx(want, abs=1e-5)
        assert holevo_bound(m).value == pytest.approx(want, abs=1e-6)

    def test_balanced_probe_other_regime(self):
        eta = 0.4
        a0sq = a1sq = 0.5
        m = interferometer_model([np.sqrt(a0sq), np.sqrt(a1sq)], eta)
        want = (
            (a0sq + eta * a1sq)
            * (1 + 4 * eta * (1 - eta) * a0sq)
            / (4 * eta * a0sq * a1sq)
        )
        h = holevo_bound(m)
        assert h.value == pytest.approx(want, abs=1e-6)
        r = nagaoka_hayashi_bound(m)
        assert r.value == pytest.approx(h.value, abs=2e-6)

    def test_nonzero_working_point_estimators(self):
        m = interferometer_model([np.sqrt(0.7), np.sqrt(0.3)], 0.1)
        r = nagaoka_hayashi_bound(m)
        assert unbias_residual(m, r.X) < 1e-6

    def test_block_solve_matches_full_solve(self):
        m = interferometer_model(holland_burnett_probe(2), 0.3)
        rb = nagaoka_hayashi_bound(m)
        rf = nagaoka_hayashi_bound(m, use_blocks=False)
        assert abs(rb.value - rf.value) <= 1e-6
        assert rb.value == pytest.approx(1.855530681, abs=1e-6)

    def test_two_photon_probe_bounds_coincide(self):
        m = interferometer_model(holland_burnett_probe(2), 0.3)
        rn = nagaoka_hayashi_bound(m)
        rh = holevo_bound(m)
        assert abs(rn.value - rh.value) <= 5e-6


class TestRecoveredOptimizers:
    def test_explicit_formula_at_centered_optimizers(self, dephasing_xy):
        model, r = dephasing_xy
        w = [x - t * np.eye(4) for x, t in zip(r.X, model.theta)]
        direct = nagaoka_explicit_two_obs(model.state, w[0], w[1])
        assert direct == pytest.approx(r.value, abs=1e-5)

    def test_parameter_permutation_invariance(self, dephasing_xyz):
        model, r = dephasing_xyz
        perm = [2, 0, 1]
        permuted = dataclasses.replace(
            model,
            derivs=tuple(model.derivs[p] for p in perm),
            theta=tuple(model.theta[p] for p in perm),
            labels=tuple(model.labels[p] for p in perm),
        )
        rp = nagaoka_hayashi_bound(permuted)
        assert abs(rp.value - r.value) <= 1e-7
        for i, p in enumerate(perm):
            np.testing.assert_allclose(rp.X[i], r.X[p], atol=1e-7)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_bound_ordering_chain(self, seed):
        m = random_model(seed=seed, dim=3, num_params=2)
        c_sld = sld_bound(m)
        c_h = holevo_bound(m).value
        c_nh = nagaoka_hayashi_bound(m).value
        assert c_sld <= c_h + 1e-6
        assert c_h <= c_nh + 2e-6


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rank_deficient_model(d, r, n, seed):
    """random_model compressed onto a random rank-r projector P.

    The state becomes P S P / Tr[P S P]; each derivative loses its
    kernel-kernel corner, and its trace is taken off inside the support.
    """
    base = random_model(seed=seed, dim=d, num_params=n)
    rng = np.random.default_rng(1000 + seed)
    q = random_unitary(rng, d)[:, :r]
    p = q @ q.conj().T
    k = np.eye(d) - p
    state = p @ base.state @ p
    state = 0.5 * (state + state.conj().T) / np.trace(state).real
    derivs = []
    for dm in base.derivs:
        dm = dm - k @ dm @ k
        dm = dm - np.trace(dm).real * p / r
        derivs.append(0.5 * (dm + dm.conj().T))
    return dataclasses.replace(base, state=state, derivs=tuple(derivs))


class TestRankDeficientModels:
    """The support-compressed program on generic rank-deficient states."""

    @pytest.mark.parametrize("d,r,n", [(3, 2, 2), (4, 2, 2), (4, 3, 3), (5, 3, 2)])
    def test_ordering_certificates_and_unitary_invariance(self, d, r, n):
        m = rank_deficient_model(d, r, n, seed=d + 10 * r + 100 * n)
        assert build_nh_sdp(m)[1].support_ranks == (r,)
        rh = holevo_bound(m)
        rn = nagaoka_hayashi_bound(m)
        assert sld_bound(m) <= rh.value + 1e-6
        assert rh.value <= rn.value + 2e-6
        assert check_certificate(rh.problem, rh.solution).passed
        assert check_certificate(rn.problem, rn.solution).passed
        assert rn.solver_stats["schur_min_eig"] >= -1e-7

        u = random_unitary(np.random.default_rng(d * r * n), d)
        rotated = dataclasses.replace(
            m,
            state=u @ m.state @ u.conj().T,
            derivs=tuple(u @ dm @ u.conj().T for dm in m.derivs),
        )
        assert holevo_bound(rotated).value == pytest.approx(rh.value, rel=1e-7)
        assert nagaoka_hayashi_bound(rotated).value == pytest.approx(
            rn.value, rel=1e-7
        )

    def test_block_outside_the_support_adds_nothing(self):
        # the state and its derivatives vanish on a second, one-dim block
        m = phase_damping_model(0.3, params="xy")

        def pad(a):
            out = np.zeros((5, 5), dtype=complex)
            out[:4, :4] = a
            return out

        padded = StatisticalModel(
            dim=5,
            state=pad(m.state),
            derivs=tuple(pad(dm) for dm in m.derivs),
            theta=m.theta,
            labels=m.labels,
            block_dims=(4, 1),
        )
        assert sld_bound(padded) == pytest.approx(sld_bound(m), rel=1e-12)
        assert holevo_bound(padded).value == pytest.approx(holevo_bound(m).value, rel=1e-7)
        assert nagaoka_hayashi_bound(padded).value == pytest.approx(
            nagaoka_hayashi_bound(m).value, rel=1e-7
        )


class TestFixedEstimatorBound:
    def test_commuting_pair_reduces_to_second_moments(self):
        rng = np.random.default_rng(3)
        a = np.diag(rng.uniform(0.5, 2.0, size=3)).astype(complex)
        b = np.diag(rng.uniform(-1.0, 1.0, size=3)).astype(complex)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = g @ g.conj().T
        s /= np.trace(s).real
        want = float(np.trace(s @ (a @ a + b @ b)).real)
        assert nh_u_bound(s, [a, b]) == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_matches_explicit_two_observable_formula(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = g @ g.conj().T
        s /= np.trace(s).real
        x1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x1 = 0.5 * (x1 + x1.conj().T)
        x2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x2 = 0.5 * (x2 + x2.conj().T)
        want = nagaoka_explicit_two_obs(s, x1, x2)
        assert nh_u_bound(s, [x1, x2]) == pytest.approx(want, abs=1e-6)

    def test_value_at_known_optimizer_pair(self):
        eps = 0.3
        xx, xy = two_param_dephasing_optimizers(eps)
        state = phase_damping_model(eps, params="xy").state
        assert nh_u_bound(state, [xx, xy]) == pytest.approx(
            4.0 / (2.0 - eps), abs=1e-6
        )

    def test_dominates_model_bound_at_recovered_estimators(self, dephasing_xy):
        model, r = dephasing_xy
        w = [x - t * np.eye(4) for x, t in zip(r.X, model.theta)]
        assert nh_u_bound(model.state, w) >= r.value - 1e-6


class TestExplicitTwoObs:
    def test_equal_observables_give_double_second_moment(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = g @ g.conj().T
        s /= np.trace(s).real
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = 0.5 * (x + x.conj().T)
        want = 2.0 * float(np.trace(s @ x @ x).real)
        assert nagaoka_explicit_two_obs(s, x, x) == pytest.approx(
            want, abs=1e-10
        )

    def test_maximally_mixed_qubit_pauli_pair(self):
        s = 0.5 * np.eye(2, dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        assert nagaoka_explicit_two_obs(s, sx, sy) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_known_optimizer_pair_hits_closed_form(self):
        eps = 0.3
        xx, xy = two_param_dephasing_optimizers(eps)
        state = phase_damping_model(eps, params="xy").state
        assert nagaoka_explicit_two_obs(state, xx, xy) == pytest.approx(
            4.0 / (2.0 - eps), abs=1e-9
        )


class TestHolevoProgram:
    def test_problem_shape_and_metadata(self, dephasing_xy):
        model, _ = dephasing_xy
        problem, meta = build_holevo_sdp(model)
        assert meta["num_params"] == 2
        assert len(meta["w0"]) == 2
        assert problem.scale == pytest.approx(-0.5)

    def test_dual_value_is_reported(self, dephasing_xy):
        model, _ = dephasing_xy
        h = holevo_bound(model)
        assert h.value == pytest.approx(h.solution.dual_obj)
        assert h.gap <= 1e-7


class TestFailureModes:
    def test_kernel_supported_derivative_rejected(self):
        m = StatisticalModel(
            dim=2,
            state=np.diag([1.0, 0.0]).astype(complex),
            derivs=(np.diag([1.0, -1.0]).astype(complex),),
            theta=(0.0,),
            labels=("a",),
        )
        with pytest.raises(BoundError):
            build_nh_sdp(m)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("3x3", "derivative 0 has weight 2.00e-01 inside the kernel"),
            ("ifo eta=1", "derivative 1 has weight 3.00e-01 inside the kernel"),
            ("ifo eta=1-1e-10", "derivative 1 has weight 3.00e-01 inside the kernel"),
            ("2x2", "derivative 0 has weight 1.00e+00 inside the kernel"),
        ],
    )
    def test_kernel_weight_is_one_error_for_every_bound(self, case, message):
        # the SLD equation has no solution here, so no bound may report a value
        amps = [np.sqrt(0.7), np.sqrt(0.3)]
        m = {
            "3x3": lambda: StatisticalModel(
                dim=3,
                state=np.diag([0.6, 0.4, 0.0]).astype(complex),
                derivs=(
                    np.array(
                        [[0.1, 0.2, 0], [0.2, 0.1, 0], [0, 0, -0.2]], dtype=complex
                    ),
                ),
                theta=(0.0,),
                labels=("a",),
            ),
            "ifo eta=1": lambda: interferometer_model(amps, 1.0),
            "ifo eta=1-1e-10": lambda: interferometer_model(amps, 1.0 - 1e-10),
            "2x2": lambda: StatisticalModel(
                dim=2,
                state=np.diag([1.0, 0.0]).astype(complex),
                derivs=(np.diag([1.0, -1.0]).astype(complex),),
                theta=(0.0,),
                labels=("a",),
            ),
        }[case]()
        seen = set()
        for bound in (sld_bound, holevo_bound, nagaoka_hayashi_bound):
            with pytest.raises(BoundError, match=re.escape(message)) as info:
                bound(m)
            seen.add(str(info.value))
        assert len(seen) == 1

    def test_kernel_weight_does_not_depend_on_the_basis(self):
        # the kernel corner [[.1, .1], [.1, .1]] has spectral norm .2; a
        # change of basis mixes the kernel vectors but keeps that norm
        d = np.diag([-0.1, -0.1, 0.1, 0.1]).astype(complex)
        d[2, 3] = d[3, 2] = 0.1
        u = random_unitary(np.random.default_rng(5), 4)
        for rot in (np.eye(4), u):
            m = StatisticalModel(
                dim=4,
                state=rot @ np.diag([0.5, 0.5, 0.0, 0.0]) @ rot.conj().T,
                derivs=(rot @ d @ rot.conj().T,),
                theta=(0.0,),
                labels=("a",),
            )
            for bound in (sld_bound, holevo_bound, nagaoka_hayashi_bound):
                with pytest.raises(BoundError, match="derivative 0 has weight 2.00e-01"):
                    bound(m)

    def test_dump_round_trips_through_text_format(self, tmp_path):
        m = phase_damping_model(0.3, params="xy")
        path = tmp_path / "program.dat-s"
        r = nagaoka_hayashi_bound(m)
        path.write_text(write_sdpa(r.problem))
        text = path.read_text()
        parsed = read_sdpa(text)
        assert parsed.num_constraints == r.solver_stats["constraints"]
        sol = solve(parsed, tol=1e-9)
        assert sol.status == "optimal"
        assert sol.primal_obj == pytest.approx(r.value, abs=1e-6)
