"""Tests for model constructors, SLDs, and JSON round-trips."""
import numpy as np
import pytest

from qmbounds import model as model_module
from qmbounds.bound_builders import build_nh_sdp
from qmbounds.model import (
    BoundError,
    ModelError,
    ModelFormatError,
    StatisticalModel,
    holland_burnett_probe,
    interferometer_model,
    model_from_dict,
    model_to_dict,
    phase_damping_model,
    random_model,
    sld,
    sld_bound,
)


class TestStatisticalModel:
    def test_rejects_bad_trace(self):
        with pytest.raises(ModelError, match="trace"):
            StatisticalModel(
                dim=2, state=2 * np.eye(2, dtype=complex),
                derivs=(np.diag([1.0, -1.0]).astype(complex),),
                theta=(0.0,), labels=("a",),
            )

    def test_rejects_negative_state(self):
        with pytest.raises(ModelError, match="eigenvalue"):
            StatisticalModel(
                dim=2, state=np.diag([1.5, -0.5]).astype(complex),
                derivs=(np.diag([1.0, -1.0]).astype(complex),),
                theta=(0.0,), labels=("a",),
            )

    def test_rejects_traceful_derivative(self):
        with pytest.raises(ModelError, match="trace"):
            StatisticalModel(
                dim=2, state=0.5 * np.eye(2, dtype=complex),
                derivs=(np.eye(2, dtype=complex),),
                theta=(0.0,), labels=("a",),
            )

    def test_rejects_length_mismatch(self):
        with pytest.raises(ModelError):
            StatisticalModel(
                dim=2, state=0.5 * np.eye(2, dtype=complex),
                derivs=(np.diag([1.0, -1.0]).astype(complex),),
                theta=(0.0, 1.0), labels=("a",),
            )


    def test_messages_print_plain_numbers(self):
        # not numpy's np.complex128(...) and np.float64(...) reprs
        with pytest.raises(ModelError, match=r"^derivative 0 has trace \(2\+0j\), not 0$"):
            StatisticalModel(dim=2, state=0.5 * np.eye(2), derivs=(np.eye(2),), theta=(0.0,), labels=("a",))
        with pytest.raises(ModelError, match=r"^amplitudes are not normalized: sum of squares is 2\.0$"):
            interferometer_model([1.0, 1.0], 0.5)

    def test_rejects_no_derivative(self):
        with pytest.raises(ModelError, match="^at least one parameter derivative is required$"):
            StatisticalModel(dim=2, state=0.5 * np.eye(2), derivs=(), theta=(), labels=())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_numbers(self, bad):
        state = 0.5 * np.eye(2, dtype=complex)
        deriv = np.diag([1.0, -1.0]).astype(complex)
        cases = [
            (state + np.diag([bad, 0.0]), deriv, 0.0, "state has non-finite"),
            (state, deriv + np.array([[0.0, bad], [bad, 0.0]]), 0.0, "derivative 0 has non-finite"),
            (state, deriv, bad, "theta"),
        ]
        for st, dm, theta, match in cases:
            with pytest.raises(ModelError, match=match):
                StatisticalModel(dim=2, state=st, derivs=(dm,), theta=(theta,), labels=("a",))

    @pytest.mark.parametrize("theta", [
        np.array([1 + 2j, 0.0]),  # was kept as (1.0, 0.0), with a ComplexWarning
        np.array([1.0, 0.0], dtype=complex),
        (1 + 2j, 0.0),  # was a bare TypeError
        ("1", 0.0),  # was taken as (1.0, 0.0)
        (True, 0.0),
        (np.bool_(False), 0.0),
    ])
    def test_theta_that_is_not_real_numbers_named(self, theta):
        m = random_model(1, 2, 2)
        with pytest.raises(ModelError, match="theta"):  # a ComplexWarning fails the run too
            StatisticalModel(dim=2, state=m.state, derivs=m.derivs, theta=theta, labels=m.labels)

    def test_theta_of_numpy_reals_accepted(self):
        m = random_model(1, 2, 2)
        for theta in (np.array([1, 2]), np.array([0.5, 2.0], dtype=np.float32), (np.int64(1), 2.5)):
            got = StatisticalModel(dim=2, state=m.state, derivs=m.derivs, theta=theta, labels=m.labels)
            assert got.theta == tuple(float(t) for t in theta)
            assert all(type(t) is float for t in got.theta)


class TestPhaseDamping:
    def test_derivative_entries_at_zero_damping(self):
        m = phase_damping_model(0.0, "x")
        dx = m.derivs[0]
        assert dx[0, 1] == pytest.approx(-0.25j)
        assert dx[0, 2] == pytest.approx(-0.25j)
        assert dx[1, 3] == pytest.approx(0.25j)
        assert np.max(np.abs(dx + dx.T)) < 1e-15  # purely imaginary pattern

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.6, 1.0])
    def test_spectrum_and_rank(self, eps):
        m = phase_damping_model(eps)
        w = np.linalg.eigvalsh(m.state)
        expect = sorted([0.0, 0.0, (1 - (1 - eps)) / 2, (1 + (1 - eps)) / 2])
        assert np.allclose(w, expect, atol=1e-12)
        assert np.sum(w > 1e-10) <= 2

    def test_full_damping_kills_z_derivative(self):
        m = phase_damping_model(1.0, "z")
        assert np.max(np.abs(m.derivs[0])) == 0.0

    def test_param_order_respected(self):
        m = phase_damping_model(0.2, "zx")
        assert m.labels == ("z", "x")
        assert np.array_equal(m.derivs[0], phase_damping_model(0.2, "z").derivs[0])

    def test_rejects_bad_input(self):
        with pytest.raises(ModelError):
            phase_damping_model(1.5)
        with pytest.raises(ModelError):
            phase_damping_model(0.5, "")
        with pytest.raises(ModelError):
            phase_damping_model(0.5, "xq")

    @pytest.mark.parametrize("eps", ["0.5", 0.5 + 0j, True], ids=["str", "complex", "bool"])
    def test_rejects_a_damping_that_is_not_a_real_number(self, eps):
        # a string or complex value once met '<=' as a bare TypeError, and
        # True passed as 1.0
        with pytest.raises(ModelError, match=r"^epsilon must be a real number, got "):
            phase_damping_model(eps)


class TestHollandBurnett:
    def test_two_photons(self):
        amps = holland_burnett_probe(2)
        assert np.allclose(amps, [1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)])

    def test_four_photons(self):
        amps = holland_burnett_probe(4)
        assert amps[1] == 0.0 and amps[3] == 0.0
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        # interference of equal Fock states: known closed-form weights
        assert abs(amps[0]) == pytest.approx(np.sqrt(3 / 8), abs=1e-12)
        assert abs(amps[2]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_normalized_and_even_only(self, n):
        amps = holland_burnett_probe(n)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(amps[1::2])) == 0.0

    def test_rejects_odd(self):
        with pytest.raises(ModelError):
            holland_burnett_probe(3)
        with pytest.raises(ModelError):
            holland_burnett_probe(0)

    @pytest.mark.parametrize("n", [4.7, 4.0, "4", True])
    def test_rejects_what_is_not_an_integer(self, n):
        # int() would truncate 4.7 to the 4-photon probe
        with pytest.raises(ModelError, match=f"^photon number must be an integer, got {n!r}$"):
            holland_burnett_probe(n)

    def test_accepts_a_numpy_integer(self):
        assert np.array_equal(holland_burnett_probe(np.int64(4)), holland_burnett_probe(4))


class TestInterferometer:
    def test_single_photon_matches_printed_matrices(self):
        a0, a1 = 0.8, 0.6
        eta = 0.7
        m = interferometer_model([a0, a1], eta=eta)
        s = np.diag([(1 - eta) * a1**2, a0**2, eta * a1**2]).astype(complex)
        s[1, 2] = s[2, 1] = np.sqrt(eta) * a0 * a1
        assert np.max(np.abs(m.state - s)) < 1e-14
        dphi = np.zeros((3, 3), dtype=complex)
        dphi[1, 2] = -1j * np.sqrt(eta) * a0 * a1
        dphi[2, 1] = 1j * np.sqrt(eta) * a0 * a1
        assert np.max(np.abs(m.derivs[0] - dphi)) < 1e-14
        deta = np.array(
            [
                [-(a1**2), 0, 0],
                [0, 0, a0 * a1 / (2 * np.sqrt(eta))],
                [0, a0 * a1 / (2 * np.sqrt(eta)), a1**2],
            ],
            dtype=complex,
        )
        assert np.max(np.abs(m.derivs[1] - deta)) < 1e-14
        assert m.labels == ("phi", "eta")
        assert m.block_dims == (1, 2)

    @pytest.mark.parametrize("eta,phi", [(0.55, 0.3), (0.9, -1.2), (1.0, 0.1)])
    def test_derivatives_match_finite_differences(self, eta, phi):
        amps = holland_burnett_probe(4)
        m = interferometer_model(amps, eta, phi)
        h = 1e-6
        dphi_fd = (
            interferometer_model(amps, eta, phi + h).state
            - interferometer_model(amps, eta, phi - h).state
        ) / (2 * h)
        assert np.max(np.abs(m.derivs[0] - dphi_fd)) < 1e-8
        if eta < 1.0:
            deta_fd = (
                interferometer_model(amps, eta + h, phi).state
                - interferometer_model(amps, eta - h, phi).state
            ) / (2 * h)
            assert np.max(np.abs(m.derivs[1] - deta_fd)) < 1e-8
        else:
            deta_fd = (
                m.state - interferometer_model(amps, eta - h, phi).state
            ) / h
            assert np.max(np.abs(m.derivs[1] - deta_fd)) < 1e-5

    def test_block_weights_sum_to_one(self):
        m = interferometer_model(holland_burnett_probe(2), 0.7)
        start = 0
        total = 0.0
        for b in m.block_dims:
            total += np.trace(m.state[start : start + b, start : start + b]).real
            start += b
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_off_block_entries_exactly_zero(self):
        m = interferometer_model(holland_burnett_probe(4), 0.6, 0.4)
        mask = np.ones((m.dim, m.dim), dtype=bool)
        start = 0
        for b in m.block_dims:
            mask[start : start + b, start : start + b] = False
            start += b
        for mat in (m.state, *m.derivs):
            assert np.max(np.abs(mat[mask])) == 0.0

    def test_blocks_are_rank_one(self):
        m = interferometer_model(holland_burnett_probe(4), 0.6)
        start = 0
        for b in m.block_dims:
            blk = m.state[start : start + b, start : start + b]
            w = np.linalg.eigvalsh(blk)
            assert np.sum(w > 1e-12) == 1
            start += b

    def test_rejects_bad_input(self):
        with pytest.raises(ModelError, match="normalized"):
            interferometer_model([1.0, 1.0], 0.5)
        with pytest.raises(ModelError, match="eta"):
            interferometer_model([1.0, 0.0], 0.0)
        with pytest.raises(ModelError, match="^need at least two amplitudes$"):
            interferometer_model([1.0], 0.5)

    @pytest.mark.parametrize("eta", ["0.5", 0.5 + 0j, True], ids=["str", "complex", "bool"])
    def test_rejects_a_transmissivity_that_is_not_a_real_number(self, eta):
        with pytest.raises(ModelError, match=r"^eta must be a real number, got "):
            interferometer_model([0.6, 0.8], eta)

    @pytest.mark.parametrize("phi", [np.nan, np.inf, 1j, "0.1", None])
    def test_rejects_a_phase_that_is_not_a_finite_real(self, phi):
        with pytest.raises(ModelError, match=r"^phi must be a finite real number, got "):
            interferometer_model([np.sqrt(0.7), np.sqrt(0.3)], 0.5, phi=phi)


class TestRandomModel:
    @pytest.mark.parametrize("dim, n", [(1, 1), (2, 0)])
    def test_rejects_bad_size(self, dim, n):
        with pytest.raises(ModelError, match=f"^need dim >= 2 and num_params >= 1, got {dim}, {n}$"):
            random_model(0, dim, n)

    @pytest.mark.parametrize("args, name", [
        ((1, 3.5, 2), "dim"), ((1, 3, 2.0), "num_params"), ((1.5, 3, 2), "seed"), ((1, True, 2), "dim"),
    ])
    def test_rejects_what_is_not_an_integer(self, args, name):
        bad = args[("seed", "dim", "num_params").index(name)]
        with pytest.raises(ModelError, match=f"^{name} must be an integer, got {bad!r}$"):
            random_model(*args)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ModelError, match="^seed must be non-negative, got -1$"):
            random_model(-1, 3, 2)

    def test_invariants_hold(self):
        for seed in range(10):
            m = random_model(seed, 4, 3)
            assert np.trace(m.state).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(m.state)[0] > 0  # full rank

    def test_deterministic(self):
        a = random_model(1, 3, 2)
        b = random_model(1, 3, 2)
        assert np.array_equal(a.state, b.state)
        assert all(np.array_equal(x, y) for x, y in zip(a.derivs, b.derivs))
        assert a.theta == b.theta

    def test_fisher_psd(self):
        m = random_model(7, 4, 3)
        w = np.linalg.eigvalsh(sld(m).fisher)
        assert w[0] > -1e-9


class TestSld:
    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.7])
    def test_fisher_diagonal_for_dephasing(self, eps):
        data = sld(phase_damping_model(eps))
        off = data.fisher - np.diag(np.diag(data.fisher))
        assert np.max(np.abs(off)) < 1e-9

    def test_defining_equation_on_support(self):
        m = phase_damping_model(0.4)
        data = sld(m)
        w, u = np.linalg.eigh(m.state)
        proj = u[:, w > 1e-10] @ u[:, w > 1e-10].conj().T
        for lop, dm in zip(data.operators, m.derivs):
            res = proj @ (m.state @ lop + lop @ m.state - 2 * dm) @ proj
            assert np.max(np.abs(res)) < 1e-8

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_one_param_bound_is_unity(self, eps):
        assert sld_bound(phase_damping_model(eps, "x")) == pytest.approx(1.0, abs=1e-9)

    def test_three_param_bound_closed_form(self):
        assert sld_bound(phase_damping_model(0.5)) == pytest.approx(6.0, abs=1e-9)

    def test_pure_state_rotation(self):
        # |0> rotated by the y generator: J = 4(<dpsi|dpsi> - |<psi|dpsi>|^2) = 1
        m = StatisticalModel(
            dim=2,
            state=np.diag([1.0, 0.0]).astype(complex),
            derivs=(np.array([[0, 0.5], [0.5, 0]], dtype=complex),),
            theta=(0.0,),
            labels=("r",),
        )
        data = sld(m)
        assert data.fisher[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert sld_bound(m) == pytest.approx(1.0, abs=1e-10)

    def test_analysis_is_made_once_and_read_only(self, monkeypatch):
        calls = []
        real = model_module.state_support
        monkeypatch.setattr(model_module, "state_support", lambda *a: calls.append(1) or real(*a))
        for m in (phase_damping_model(0.3), interferometer_model([np.sqrt(0.7), np.sqrt(0.3)], 0.4)):
            calls.clear()
            assert sld(m) is sld(m) is m.analysis
            sld_bound(m)
            build_nh_sdp(m)
            assert len(calls) == 1
            a = m.analysis
            arrays = [*a.operators, a.fisher, a.fisher_eigs]
            arrays += [arr for sup in (a.support, *a.block_supports) for arr in (sup.vals, sup.vecs, sup.mask)]
            for arr in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0

    def test_declared_blocks_share_the_analysis(self):
        m = interferometer_model([np.sqrt(0.7), np.sqrt(0.3)], 0.4)
        a = m.analysis
        assert a.blocks == ((0, 1), (1, 2))
        assert [sup.rank for sup in a.block_supports] == [1, 1]
        plain = phase_damping_model(0.3)
        assert plain.analysis.blocks == ((0, 4),)
        (only,) = plain.analysis.block_supports
        assert only is plain.analysis.support

    def test_singular_fisher_raises(self):
        # two identical parameters make J rank deficient
        m = phase_damping_model(0.3, "x")
        twin = StatisticalModel(
            dim=4, state=m.state, derivs=(m.derivs[0], m.derivs[0]),
            theta=(0.0, 0.0), labels=("a", "b"),
        )
        with pytest.raises(BoundError, match="Fisher information is singular"):
            sld_bound(twin)


class TestJsonSchema:
    def test_round_trip(self):
        m = phase_damping_model(0.35, "xz")
        back = model_from_dict(model_to_dict(m))
        assert back.dim == m.dim
        assert np.max(np.abs(back.state - m.state)) == 0.0
        assert all(np.array_equal(a, b) for a, b in zip(back.derivs, m.derivs))
        assert back.theta == m.theta
        assert back.labels == m.labels

    def test_round_trip_keeps_block_dims(self):
        m = interferometer_model(holland_burnett_probe(6), 0.6)
        data = model_to_dict(m)
        assert data["block_dims"] == list(m.block_dims)
        back = model_from_dict(data)
        assert back.block_dims == m.block_dims
        assert build_nh_sdp(back)[0].block_dims == build_nh_sdp(m)[0].block_dims
        assert "block_dims" not in model_to_dict(phase_damping_model(0.35, "xz"))

    @pytest.mark.parametrize(
        "blocks", [[], [4, 0], [4, -1], [2.0, 2], [True, 3], "4", [[4]]], ids=repr
    )
    def test_bad_block_dims_named(self, blocks):
        data = model_to_dict(phase_damping_model(0.1, "x"))
        data["block_dims"] = blocks
        with pytest.raises(ModelFormatError, match="^field 'block_dims': expected a list of positive integers$"):
            model_from_dict(data)

    def test_block_dims_that_do_not_fit_the_model(self):
        data = model_to_dict(phase_damping_model(0.1, "x"))
        data["block_dims"] = [1, 2]
        with pytest.raises(ModelFormatError, match="do not partition dimension 4"):
            model_from_dict(data)
        data["block_dims"] = [2, 2]
        with pytest.raises(ModelFormatError, match="weight outside the declared blocks"):
            model_from_dict(data)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (None, [], "top level: expected a JSON object"),
            ("dim", 1, "field 'dim': expected an integer >= 2, got 1"),
            ("dim", "4", "field 'dim': expected an integer >= 2, got '4'"),
            ("state", [[[0.0, 0.0]] * 4] * 3, "field 'state': expected 4 rows"),
            ("state", [[[0.0, 0.0]] * 3] * 4, "field 'state': row 0 must have 4 entries"),
            ("derivs", [], "field 'derivs': expected a non-empty list of matrices"),
            ("labels", [1], "field 'labels': expected a list of strings"),
        ],
        ids=["not an object", "dim 1", "dim string", "state rows", "state row", "no derivs", "labels"],
    )
    def test_malformed_payload_named(self, field, value, message):
        data = model_to_dict(phase_damping_model(0.1, "x"))
        if field is None:
            data = value
        else:
            data[field] = value
        with pytest.raises(ModelFormatError, match=f"^{message}$"):
            model_from_dict(data)

    def test_missing_field_named(self):
        data = model_to_dict(phase_damping_model(0.1, "x"))
        del data["theta"]
        with pytest.raises(ModelFormatError, match="theta"):
            model_from_dict(data)

    def test_bad_entry_named(self):
        data = model_to_dict(phase_damping_model(0.1, "x"))
        data["state"][0][0] = [0.0]
        with pytest.raises(ModelFormatError, match="state"):
            model_from_dict(data)

    @pytest.mark.parametrize("field", ["theta", "state", "derivs"])
    def test_boolean_number_named(self, field):
        # JSON true and false decode to bool, which Python counts as an int
        data = model_to_dict(phase_damping_model(0.1, "xy"))
        if field == "theta":
            data["theta"] = [True, False]
            message = "field 'theta': expected a list of numbers"
        else:
            (data["state"] if field == "state" else data["derivs"][0])[0][1] = [0.0, False]
            message = r"entry \(0, 1\) must be a \[re, im\] pair"
        with pytest.raises(ModelFormatError, match=message):
            model_from_dict(data)

    def test_invariant_violation_reported(self):
        data = model_to_dict(phase_damping_model(0.1, "x"))
        data["state"][0][0] = [0.5, 0.0]
        with pytest.raises(ModelFormatError, match="invariant"):
            model_from_dict(data)

    @pytest.mark.parametrize("field", ["state", "derivs"])
    def test_non_finite_entry_named(self, field):
        data = model_to_dict(phase_damping_model(0.1, "x"))
        mat = data["state"] if field == "state" else data["derivs"][0]
        mat[1][0] = [0.0, float("inf")]
        with pytest.raises(ModelFormatError, match=r"entry \(1, 0\) is not finite"):
            model_from_dict(data)
