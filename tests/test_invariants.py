"""Invariants that the theory gives the three bounds, on seeded models.

A unitary change of basis of the Hilbert space, and an orthogonal
reparametrisation, leave the SLD, Holevo and Nagaoka-Hayashi bounds
unchanged, and the bounds are ordered: SLD <= Holevo <= min(NH, 2 SLD).
On a qubit with two parameters, NH is Nagaoka's closed form.
"""
import numpy as np
import pytest

from qmbounds import (
    StatisticalModel,
    holevo_bound,
    holland_burnett_probe,
    interferometer_model,
    nagaoka_hayashi_bound,
    phase_damping_model,
    random_model,
    sld,
    sld_bound,
)

MODELS = {
    "random d=2 n=2": lambda: random_model(11, 2, 2),
    "random d=3 n=3": lambda: random_model(12, 3, 3),
    "random d=4 n=2": lambda: random_model(13, 4, 2),
    "random d=4 n=3": lambda: random_model(14, 4, 3),
    "pd xyz eps=0.3": lambda: phase_damping_model(0.3, "xyz"),
    "ifo": lambda: interferometer_model(np.sqrt([0.7, 0.3]), 0.5),
    "hb N=2": lambda: interferometer_model(holland_burnett_probe(2), 0.6),
}


def bounds(model):
    return np.array([sld_bound(model), holevo_bound(model).value, nagaoka_hayashi_bound(model).value])


def rotated(model, u):
    """The model in the basis of the unitary u: every operator A is u A u^H."""
    return StatisticalModel(
        dim=model.dim,
        state=u @ model.state @ u.conj().T,
        derivs=tuple(u @ dm @ u.conj().T for dm in model.derivs),
        theta=model.theta,
        labels=model.labels,
    )


def reparametrised(model, o):
    """The model in parameters theta' = o theta, o orthogonal: the
    derivatives are d'_j = sum_k o_jk d_k."""
    return StatisticalModel(
        dim=model.dim,
        state=model.state,
        derivs=tuple(sum(o[j, k] * dm for k, dm in enumerate(model.derivs)) for j in range(len(o))),
        theta=tuple(o @ np.array(model.theta)),
        labels=model.labels,
        block_dims=model.block_dims,
    )


@pytest.mark.parametrize("name", MODELS)
def test_unitary_change_of_basis_and_orthogonal_reparametrisation(name):
    model = MODELS[name]()
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((model.dim,) * 2) + 1j * rng.standard_normal((model.dim,) * 2))
    o, _ = np.linalg.qr(rng.standard_normal((model.num_params,) * 2))
    want = bounds(model)
    for other in (rotated(model, u), reparametrised(model, o)):
        assert np.max(np.abs(bounds(other) - want) / want) <= 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_bounds_are_ordered(seed):
    model = random_model(100 + seed, 2 + seed % 4, 2 + seed % 2)
    sld, holevo, nh = bounds(model)
    slack = 1 + 1e-9
    assert sld <= holevo * slack
    assert holevo <= nh * slack
    assert holevo <= 2 * sld * slack


@pytest.mark.parametrize("seed", range(12))
def test_qubit_two_parameter_nh_is_nagaoka_closed_form(seed):
    # Nagaoka's bound Tr J^-1 + 2 sqrt(det J^-1), J the SLD Fisher matrix,
    # which NH equals on a qubit with two parameters
    model = random_model(seed, 2, 2)
    jinv = np.linalg.inv(sld(model).fisher)
    want = np.trace(jinv) + 2 * np.sqrt(np.linalg.det(jinv))
    assert nagaoka_hayashi_bound(model).value == pytest.approx(want, rel=1e-8)
