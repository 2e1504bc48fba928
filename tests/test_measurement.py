"""Tests for POVM validation, error matrices, and the analytic families."""
import numpy as np
import pytest

from qmbounds.measurement import (
    Estimator,
    MeasurementError,
    MeasurementFormatError,
    POVM,
    check_unbiased,
    estimator_from_dict,
    estimator_to_dict,
    estimator_to_X,
    interferometer_povm,
    mse_matrix,
    outcome_probabilities,
    phase_damping_povm,
    sample,
    validate_povm,
)
from qmbounds.model import interferometer_model, phase_damping_model


def known_dephasing_optimizers(eps):
    xx = np.array(
        [[0, -1j, -1j, 0], [1j, 0, 0, 1j], [1j, 0, 0, 1j], [0, -1j, -1j, 0]]
    ) / (2 - eps)
    xy = np.array(
        [[0, -1, -1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 1, 0]],
        dtype=complex,
    ) / (2 - eps)
    return xx, xy


class TestPovmValidation:
    def test_computational_basis_passes(self):
        povm = POVM(outcomes=(np.diag([1.0, 0]).astype(complex),
                              np.diag([0, 1.0]).astype(complex)))
        report = validate_povm(povm)
        assert report.passed
        assert report.completeness_residual < 1e-15
        assert all(e >= -1e-15 for e in report.min_eigenvalues)

    def test_incomplete_set_fails(self):
        povm = POVM(outcomes=(0.5 * np.eye(2, dtype=complex),))
        assert not validate_povm(povm).passed

    def test_negative_outcome_fails(self):
        povm = POVM(
            outcomes=(np.diag([1.5, 1.0]).astype(complex),
                      np.diag([-0.5, 0.0]).astype(complex))
        )
        report = validate_povm(povm)
        assert not report.passed
        assert report.min_eigenvalues[1] == pytest.approx(-0.5)

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(MeasurementError, match="dimension"):
            POVM(outcomes=(np.eye(2, dtype=complex),
                           np.eye(3, dtype=complex)))

    def test_xi_column_count_enforced(self):
        povm = POVM(outcomes=(np.eye(2, dtype=complex),))
        with pytest.raises(MeasurementError, match="columns"):
            Estimator(povm=povm, xi=np.zeros((1, 3)))

    def test_non_hermitian_outcome_rejected(self):
        # the two sum to the identity with eigenvalues 1/2 each, so
        # validate_povm alone would pass them
        pair = (np.array([[0.5, 0.3], [0.0, 0.5]]), np.array([[0.5, -0.3], [0.0, 0.5]]))
        with pytest.raises(MeasurementError, match="^outcome 0 is not Hermitian$"):
            POVM(outcomes=pair)
        with pytest.raises(MeasurementError, match="^outcome 1 is not Hermitian$"):
            POVM(outcomes=(np.diag([0.5, 0.5]), pair[1]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_outcome_rejected(self, value):
        with pytest.raises(MeasurementError, match="^outcome 0 has non-finite entries$"):
            POVM(outcomes=(np.diag([value, 1.0]), np.eye(2)))

    @pytest.mark.parametrize(
        "outcomes, message",
        [
            ((), "a POVM needs at least one outcome"),
            ((np.ones((2, 3)),), "outcome 0 is not a square matrix"),
            ((np.eye(2), np.ones(2)), "outcome 1 is not a square matrix"),
        ],
        ids=["empty", "oblong", "vector"],
    )
    def test_malformed_outcomes_rejected(self, outcomes, message):
        with pytest.raises(MeasurementError, match=f"^{message}$"):
            POVM(outcomes=outcomes)

    def test_outcome_stored_as_its_hermitian_part(self):
        near = np.array([[1.0, 1e-12], [0.0, 0.0]])
        stored = POVM(outcomes=(near, np.diag([0.0, 1.0]))).outcomes[0]
        assert np.array_equal(stored, stored.conj().T)

    @pytest.mark.parametrize(
        "xi, message",
        [
            (np.array([[np.nan]]), "xi has non-finite entries"),
            (np.array([[np.inf]]), "xi has non-finite entries"),
            (np.array([[-np.inf]]), "xi has non-finite entries"),
            # not cut to its real part, nor a bare TypeError from a list
            (np.array([[1.0 + 1j]]), "xi is complex"),
            ([[1.0 + 1j]], "xi is complex"),
            (np.zeros(1), "xi must be a 2-d array"),
        ],
    )
    def test_non_finite_or_complex_xi_rejected(self, xi, message):
        povm = POVM(outcomes=(np.eye(2, dtype=complex),))
        with pytest.raises(MeasurementError, match=f"^{message}$"):
            Estimator(povm=povm, xi=xi)


class TestDephasingMeasurement:
    def test_five_outcome_family_is_valid(self):
        est = phase_damping_povm(0.4, 0.5, 0.5)
        assert est.povm.num_outcomes == 5
        assert validate_povm(est.povm).passed

    def test_completion_touches_zero_at_unit_radius(self):
        est = phase_damping_povm(0.3, 0.8, 0.6)
        report = validate_povm(est.povm)
        assert report.passed
        assert report.min_eigenvalues[4] == pytest.approx(0.0, abs=1e-12)

    def test_outcome_pair_probability(self):
        est = phase_damping_povm(0.5, 0.6, 0.6)
        m = phase_damping_model(0.5, params="xy")
        p = outcome_probabilities(m.state, est.povm)
        assert p[0] + p[1] == pytest.approx(0.36 * 1.5 / 2.0, abs=1e-12)

    def test_error_matrix_values(self):
        est = phase_damping_povm(0.4, 0.5, 0.5)
        m = phase_damping_model(0.4, params="xy")
        v = mse_matrix(m, est)
        assert v[0, 0] == pytest.approx(1.25, abs=1e-12)
        assert v[1, 1] == pytest.approx(1.25, abs=1e-12)
        assert v[0, 1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("eps", [0.2, 0.5])
    def test_trace_meets_bound_for_any_amplitudes(self, eps):
        m = phase_damping_model(eps, params="xy")
        want = 4.0 / (2.0 - eps)
        for a in (0.1, 0.4, 0.7):
            for b in (0.1, 0.4, 0.7):
                v = mse_matrix(m, phase_damping_povm(eps, a, b))
                assert np.trace(v) == pytest.approx(want, abs=1e-9)

    def test_coefficients_are_unbiased(self):
        est = phase_damping_povm(0.3, 0.4, 0.6)
        m = phase_damping_model(0.3, params="xy")
        report = check_unbiased(m, est)
        assert report.max_residual < 1e-10
        assert report.passed

    def test_scaled_coefficients_break_unbiasedness_linearly(self):
        est = phase_damping_povm(0.3, 0.4, 0.6)
        doubled = Estimator(povm=est.povm, xi=2.0 * est.xi)
        m = phase_damping_model(0.3, params="xy")
        report = check_unbiased(m, doubled)
        assert report.derivative_residuals[0, 0] == pytest.approx(1.0)
        assert report.derivative_residuals[1, 1] == pytest.approx(1.0)

    def test_observables_match_known_optimizers(self):
        eps = 0.3
        xx, xy = known_dephasing_optimizers(eps)
        for a, b in ((0.5, 0.5), (0.33, 0.71)):
            xs = estimator_to_X(phase_damping_povm(eps, a, b))
            np.testing.assert_allclose(xs[0], xx, atol=1e-10)
            np.testing.assert_allclose(xs[1], xy, atol=1e-10)

    @pytest.mark.parametrize(
        "eps, split, message",
        [
            (1.5, None, r"epsilon must lie in \[0, 1\]"),
            (-0.1, None, r"epsilon must lie in \[0, 1\]"),
            (1.0, 0.01, "the split form needs epsilon < 1"),
        ],
    )
    def test_rejects_damping_out_of_range(self, eps, split, message):
        with pytest.raises(MeasurementError, match=f"^{message}$"):
            phase_damping_povm(eps, 0.1, 0.1, split_delta=split)

    @pytest.mark.parametrize("eps, message", [
        ("0.5", r"epsilon must be a real number, got '0\.5'"),
        (True, "epsilon must be a real number, got True"),
    ], ids=["str", "bool"])
    def test_rejects_damping_that_is_not_a_number(self, eps, message):
        with pytest.raises(MeasurementError, match=f"^{message}$"):
            phase_damping_povm(eps, 0.5, 0.5)

    def test_rejects_zero_amplitude(self):
        with pytest.raises(MeasurementError, match="non-zero"):
            phase_damping_povm(0.3, 0.0, 0.5)
        with pytest.raises(MeasurementError, match=r"^a and b must be real numbers, got '0\.5', 0\.5$"):
            phase_damping_povm(0.5, "0.5", 0.5)

    def test_rejects_overlong_amplitudes(self):
        with pytest.raises(MeasurementError, match="exceed"):
            phase_damping_povm(0.3, 0.9, 0.6)

    @pytest.mark.parametrize(
        "a, b, split",
        [(np.nan, 0.5, None), (0.5, np.nan, None), (np.nan, np.nan, np.nan), (0.5, 0.5, np.nan)],
    )
    def test_rejects_nan(self, a, b, split):
        with pytest.raises(MeasurementError):
            phase_damping_povm(0.3, a, b, split_delta=split)


class TestDephasingSplit:
    def test_split_family_is_valid_and_unbiased(self):
        est = phase_damping_povm(0.4, 0.1, 0.1, split_delta=0.01)
        assert est.povm.num_outcomes == 7
        assert validate_povm(est.povm).passed
        m = phase_damping_model(0.4, params="xyz")
        assert check_unbiased(m, est).max_residual < 1e-10

    def test_longitudinal_variance(self):
        eps, delta = 0.4, 0.01
        est = phase_damping_povm(eps, 0.1, 0.1, split_delta=delta)
        m = phase_damping_model(eps, params="xyz")
        v = mse_matrix(m, est)
        want = 1.0 / ((1.0 - eps) ** 2 * (1.0 - 2.0 * delta))
        assert v[2, 2] == pytest.approx(want, abs=1e-12)
        assert v[0, 0] == pytest.approx(2.0 / (2.0 - eps), abs=1e-9)

    def test_split_outcomes_sum_to_unsplit_completion(self):
        flat = phase_damping_povm(0.3, 0.2, 0.4)
        split = phase_damping_povm(
            0.3, 0.2, 0.4, split_delta=0.5 * (0.04 + 0.16)
        )
        total = sum(split.povm.outcomes[4:])
        np.testing.assert_allclose(total, flat.povm.outcomes[4], atol=1e-12)

    def test_wrong_split_weight_rejected(self):
        with pytest.raises(MeasurementError, match="split_delta"):
            phase_damping_povm(0.3, 0.2, 0.4, split_delta=0.2)

    def test_wrong_split_weight_message_prints_plain_numbers(self):
        # numpy amplitudes, not a np.float64(...) repr in the message
        with pytest.raises(MeasurementError, match=r"^split_delta must equal \(a\^2 \+ b\^2\)/2 = 0\.1\d*, got 0\.2$"):
            phase_damping_povm(0.3, np.float64(0.2), np.float64(0.4), split_delta=0.2)

    def test_split_needs_room_below_unit_radius(self):
        with pytest.raises(MeasurementError, match="a\\^2 \\+ b\\^2 < 1"):
            phase_damping_povm(0.3, 0.8, 0.6, split_delta=0.5)


class TestInterferometerMeasurement:
    def test_valid_and_unbiased_inside_region(self):
        a0, a1, eta = np.sqrt(0.7), np.sqrt(0.3), 0.1
        est = interferometer_povm(a0, a1, eta)
        assert est.povm.num_outcomes == 4
        assert validate_povm(est.povm).passed
        m = interferometer_model([a0, a1], eta)
        assert check_unbiased(m, est).max_residual < 1e-10

    def test_variances_and_saturating_sum(self):
        a0, a1, eta = np.sqrt(0.7), np.sqrt(0.3), 0.1
        a1sq = 0.3
        est = interferometer_povm(a0, a1, eta)
        v = mse_matrix(interferometer_model([a0, a1], eta), est)
        assert v[0, 0] == pytest.approx(
            (1 + eta - 2 * eta**2) / (4 * eta * a1sq), abs=1e-9
        )
        assert v[1, 1] == pytest.approx(
            (1 + eta - 2 * eta**2) / (2 * a1sq), abs=1e-9
        )
        want = (1 + 3 * eta - 4 * eta**3) / (4 * eta * a1sq)
        assert np.trace(v) == pytest.approx(want, abs=1e-9)

    def test_outcome_probabilities(self):
        a0, a1, eta = np.sqrt(0.7), np.sqrt(0.3), 0.1
        est = interferometer_povm(a0, a1, eta)
        m = interferometer_model([a0, a1], eta)
        p = outcome_probabilities(m.state, est.povm)
        denom = (1 - eta) * (1 + 2 * eta) * 0.7 - eta * 0.3
        assert p[0] == pytest.approx((1 - eta) * 0.3, abs=1e-12)
        assert p[1] == pytest.approx(eta * 0.3 * (1 - 0.7 / denom), abs=1e-12)
        assert p[2] == pytest.approx(0.35 * (1 + eta * 0.3 / denom), abs=1e-12)
        assert p[3] == pytest.approx(p[2], abs=1e-12)

    def test_boundary_collapses_to_three_outcomes(self):
        a0, a1 = np.sqrt(0.7), np.sqrt(0.3)
        eta = (0.7 - 0.3) / (2 * 0.7)
        est = interferometer_povm(a0, a1, eta)
        assert est.povm.num_outcomes == 3
        assert est.meta["boundary"]
        report = validate_povm(est.povm)
        assert report.passed
        assert report.completeness_residual < 1e-10
        m = interferometer_model([a0, a1], eta)
        assert check_unbiased(m, est).max_residual < 1e-8

    def test_invalid_eta_rejected_with_eigenvalue(self):
        a0, a1 = np.sqrt(0.7), np.sqrt(0.3)
        with pytest.raises(MeasurementError, match="eigenvalue"):
            interferometer_povm(a0, a1, 0.32)

    def test_threshold_flags_recorded(self):
        a0, a1 = np.sqrt(0.7), np.sqrt(0.3)
        est = interferometer_povm(a0, a1, 0.1)
        assert est.meta["eta_lt_half_gap"]
        assert est.meta["eta_lt_scaled_gap"]
        mid = interferometer_povm(a0, a1, 0.25)
        assert not mid.meta["eta_lt_half_gap"]
        assert mid.meta["eta_lt_scaled_gap"]

    @pytest.mark.parametrize(
        "a0sq, eta, message",
        [
            (0.0, 0.1, "amplitudes must be positive"),
            (0.7, 1.0, r"eta must lie in \(0, 1\)"),
            (0.7, 0.0, r"eta must lie in \(0, 1\)"),
            # (1 - eta)(1 + 2 eta) a0^2 - eta a1^2 = 0.1 - 0.45
            (0.1, 0.5, r"support denominator -0\.35\d* is not positive at eta=0\.5"),
        ],
    )
    def test_rejects_parameters_outside_the_family(self, a0sq, eta, message):
        with pytest.raises(MeasurementError, match=f"^{message}$"):
            interferometer_povm(np.sqrt(a0sq), np.sqrt(1.0 - a0sq), eta)

    def test_rejects_eta_that_is_not_a_number(self):
        with pytest.raises(MeasurementError, match=r"^eta must be a real number, got '0\.5'$"):
            interferometer_povm(0.8, 0.6, "0.5")

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(MeasurementError, match="a0\\^2 \\+ a1\\^2"):
            interferometer_povm(0.9, 0.6, 0.1)


class TestGenericOperations:
    def test_single_outcome_identity(self):
        est = Estimator(
            povm=POVM(outcomes=(np.eye(3, dtype=complex),)),
            xi=np.array([[2.5]]),
        )
        xs = estimator_to_X(est)
        np.testing.assert_allclose(xs[0], 2.5 * np.eye(3), atol=1e-14)

    def test_zero_coefficients_give_zero_matrix(self):
        est = phase_damping_povm(0.3, 0.5, 0.5)
        zeroed = Estimator(povm=est.povm, xi=np.zeros_like(est.xi))
        m = phase_damping_model(0.3, params="xy")
        np.testing.assert_allclose(mse_matrix(m, zeroed), 0.0, atol=1e-15)

    def test_error_matrix_is_permutation_invariant(self):
        est = phase_damping_povm(0.3, 0.4, 0.6)
        m = phase_damping_model(0.3, params="xy")
        perm = [4, 2, 0, 3, 1]
        shuffled = Estimator(
            povm=POVM(outcomes=tuple(est.povm.outcomes[i] for i in perm)),
            xi=est.xi[:, perm],
        )
        np.testing.assert_allclose(
            mse_matrix(m, shuffled), mse_matrix(m, est), atol=1e-12
        )

    def test_dimension_mismatch_raises(self):
        est = phase_damping_povm(0.3, 0.1, 0.1, split_delta=0.01)
        m = phase_damping_model(0.3, params="xy")
        with pytest.raises(MeasurementError, match="rows"):
            mse_matrix(m, est)

    def test_model_dimension_mismatch_raises(self):
        est = interferometer_povm(np.sqrt(0.7), np.sqrt(0.3), 0.1)
        m = phase_damping_model(0.3, params="xy")
        with pytest.raises(MeasurementError, match="dimension"):
            check_unbiased(m, est)


class TestSampler:
    def test_matches_exact_matrix_within_five_sigma(self):
        est = phase_damping_povm(0.4, 0.5, 0.5)
        m = phase_damping_model(0.4, params="xy")
        exact = mse_matrix(m, est)
        shots = 10**6
        result = sample(m, est, shots, seed=7)
        p = outcome_probabilities(m.state, est.povm)
        for j in range(2):
            for k in range(2):
                prod = est.xi[j] * est.xi[k]
                second = float(np.sum(prod**2 * p))
                var = max(second - exact[j, k] ** 2, 0.0) / shots
                sigma = np.sqrt(var)
                assert abs(result.matrix[j, k] - exact[j, k]) <= 5 * sigma + 1e-12

    def test_deterministic_per_seed(self):
        est = phase_damping_povm(0.4, 0.5, 0.5)
        m = phase_damping_model(0.4, params="xy")
        one = sample(m, est, 10**4, seed=42)
        two = sample(m, est, 10**4, seed=42)
        np.testing.assert_array_equal(one.matrix, two.matrix)
        other = sample(m, est, 10**4, seed=43)
        assert np.max(np.abs(other.matrix - one.matrix)) > 0

    @pytest.mark.parametrize(
        "outcomes, shots, message",
        [
            (None, -1, "shots must be non-negative"),
            ((2.0, -1.0), 10, r"outcome probability -1\.000e\+00 is negative beyond tolerance"),
            ((0.25, 0.25), 10, "outcome probabilities sum to 0.5, not 1"),
        ],
        ids=["negative shots", "negative probability", "incomplete"],
    )
    def test_rejects_what_cannot_be_sampled(self, outcomes, shots, message):
        est = phase_damping_povm(0.4, 0.5, 0.5)
        if outcomes is not None:  # multiples of the identity, one coefficient each
            est = Estimator(povm=POVM(outcomes=tuple(c * np.eye(4) for c in outcomes)),
                            xi=np.zeros((2, len(outcomes))))
        m = phase_damping_model(0.4, params="xy")
        with pytest.raises(MeasurementError, match=f"^{message}$"):
            sample(m, est, shots, seed=1)

    @pytest.mark.parametrize("shots, seed, message", [
        (2.5, 1, "shots must be an integer, got 2.5"),
        (True, 1, "shots must be an integer, got True"),
        (10, 1.0, "seed must be an integer, got 1.0"),
        (10, -1, "seed must be non-negative, got -1"),
    ])
    def test_rejects_bad_shots_and_seeds_by_name(self, shots, seed, message):
        est = phase_damping_povm(0.4, 0.5, 0.5)
        m = phase_damping_model(0.4, params="xy")
        with pytest.raises(MeasurementError, match=f"^{message}$"):
            sample(m, est, shots, seed)

    def test_zero_shots_flagged(self):
        est = phase_damping_povm(0.4, 0.5, 0.5)
        m = phase_damping_model(0.4, params="xy")
        result = sample(m, est, 0, seed=1)
        np.testing.assert_allclose(result.matrix, 0.0)
        assert result.warning is not None
        assert result.generator == "PCG64"


class TestJsonRoundTrip:
    def test_round_trip_preserves_data(self):
        est = interferometer_povm(np.sqrt(0.7), np.sqrt(0.3), 0.1)
        back = estimator_from_dict(estimator_to_dict(est))
        assert back.povm.num_outcomes == est.povm.num_outcomes
        for a, b in zip(back.povm.outcomes, est.povm.outcomes):
            np.testing.assert_allclose(a, b, atol=1e-15)
        np.testing.assert_allclose(back.xi, est.xi, atol=1e-15)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "payload must be a JSON object"),
            ({"outcomes": [[]], "xi": [[0.0]]}, "field 'outcomes': entry 0 must be a non-empty matrix"),
            ({"outcomes": [[[[1.0, 0.0]]]]}, "field 'xi': expected a non-empty list of rows"),
        ],
        ids=["not an object", "empty outcome", "no xi"],
    )
    def test_malformed_payload_cited(self, payload, message):
        with pytest.raises(MeasurementFormatError, match=f"^{message}$"):
            estimator_from_dict(payload)

    def test_missing_outcomes_cited(self):
        with pytest.raises(MeasurementFormatError, match="'outcomes'"):
            estimator_from_dict({"xi": [[0.0]]})

    def test_ragged_xi_cited(self):
        est = phase_damping_povm(0.3, 0.5, 0.5)
        data = estimator_to_dict(est)
        data["xi"] = [[1.0, 2.0]]
        with pytest.raises(MeasurementFormatError, match="'xi'"):
            estimator_from_dict(data)

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_xi_entry_cited(self, value):
        data = estimator_to_dict(phase_damping_povm(0.3, 0.5, 0.5))
        data["xi"][0][1] = value
        with pytest.raises(MeasurementFormatError, match="field 'xi': row 0 must contain numbers"):
            estimator_from_dict(data)

    def test_bad_entry_cited(self):
        est = phase_damping_povm(0.3, 0.5, 0.5)
        data = estimator_to_dict(est)
        data["outcomes"][0][0][0] = "oops"
        with pytest.raises(MeasurementFormatError, match="re, im"):
            estimator_from_dict(data)
