"""Invariants that the theory gives the three bounds, on seeded models.

A unitary change of basis of the Hilbert space, and an orthogonal
reparametrisation, leave the SLD, Holevo and Nagaoka-Hayashi bounds
unchanged, and the bounds are ordered: SLD <= Holevo <= min(NH, 2 SLD).
On a qubit with two parameters, NH is Nagaoka's closed form.  With two
parameters, Holevo lies between a max-min value found by least squares,
with no SDP, and the value of the SDP's own estimators.  Scaling the
derivatives by c scales each bound by 1/c^2, and near full damping
the dephased pair keeps its closed forms.  The cases of the last two that
fail today are marked strict xfail, with what makes them fail, as is NH on
an interferometer with almost all of its light lost.
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


BOUND_VALUES = {
    "sld": sld_bound,
    "holevo": lambda model: holevo_bound(model).value,
    "nh": lambda model: nagaoka_hayashi_bound(model).value,
}


def case(bound, at, why):
    """A parametrized case, strict xfail when `why` says what fails today."""
    marks = pytest.mark.xfail(strict=True, reason=f"ROADMAP item 5: {why}") if why else ()
    return pytest.param(bound, at, marks=marks, id=f"{bound}-{at:g}")


SCALE_FAILURES = {
    **{(bound, 1e6): "the derivative trace test is absolute" for bound in BOUND_VALUES},
    **{(bound, 1e-6): "the solver's absolute floors leave it at max_iter" for bound in ("holevo", "nh")},
    **{(bound, c): "the solver's absolute floors leave it stalled"
       for bound, c in [("holevo", 1e-4), ("nh", 1e-4), ("nh", 1e-2)]},
    **{(bound, c): "a wrong value under the solver's absolute gap floor passes as optimal"
       for bound in ("holevo", "nh") for c in (1e2, 1e4)},
}


@pytest.mark.parametrize(
    "bound, c",
    [case(bound, c, SCALE_FAILURES.get((bound, c)))
     for bound in BOUND_VALUES for c in (1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6)],
)
def test_scale_covariance(bound, c):
    # derivatives c * d_j give the bound C / c^2
    model = random_model(3, 3, 2)
    scaled = StatisticalModel(
        dim=model.dim,
        state=model.state,
        derivs=tuple(c * dm for dm in model.derivs),
        theta=model.theta,
        labels=model.labels,
    )
    value = BOUND_VALUES[bound]
    assert c * c * value(scaled) == pytest.approx(value(model), rel=1e-7)


DAMPING_FAILURES = {
    ("nh", 0.99): "NH stalls near full damping",
    ("holevo", 0.999): "Holevo stalls near full damping",
    ("nh", 0.999): "NH stalls near full damping",
    ("holevo", 0.9999): "Holevo stalls near full damping",
    ("nh", 0.9999): "NH stalls near full damping",
}


@pytest.mark.parametrize(
    "bound, eps",
    [case(bound, eps, DAMPING_FAILURES.get((bound, eps)))
     for bound in ("holevo", "nh") for eps in (0.99, 0.999, 0.9999)],
)
def test_dephased_pair_closed_forms_near_full_damping(bound, eps):
    want = {"holevo": 2 + 1 / (1 - eps) ** 2, "nh": 4 / (2 - eps) + 1 / (1 - eps) ** 2}[bound]
    value = BOUND_VALUES[bound](phase_damping_model(eps, "xyz"))
    assert value == pytest.approx(want, rel=1e-7)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 5 and 11: NH of value 25030 stalls at gap 8.8e-9 under the "
    "solver's absolute floors; posed uncompressed it was optimal, 6e-10 below Holevo"))
def test_nh_lies_above_holevo_at_low_transmission():
    model = interferometer_model(holland_burnett_probe(4), 0.001)
    assert holevo_bound(model).value <= nagaoka_hayashi_bound(model).value * (1 + 1e-9)


def holevo_parts(problem):
    """m0 and N of the Holevo program of a two-parameter model, read from
    the program: its objective block holds m0 below the 2 x 2 corner, and
    each X row (after the 3 rows of V) puts minus the conjugate of one
    column of N in its row of the M^H slot.  The estimators' coordinates
    are the columns of m0 + N [y_1, y_2], y_j the j-th X rows' duals."""
    n, nv = 2, 3
    d = problem.block_dims[0]
    m0 = problem.objective[0][n:, :n]
    q = (problem.num_constraints - nv) // n
    store = problem.store
    i, j = np.divmod(store.col, d)
    x0 = (store.row >= nv) & (store.row < nv + q) & (i == 0) & (j >= n)
    N = np.zeros((d - n, q), dtype=complex)
    N[j[x0] - n, store.row[x0] - nv] = -store.val[x0].conj()
    return m0, N


def holevo_sandwich(problem, dual_y):
    """(lo, hi) around the Holevo bound of a two-parameter model, with no
    SDP.  With m_j = m0_j + N y_j over real y, the bound is the minimum over
    y of max over t in [-1, 1] of ||m_1 + i t m_2||^2 + (1 - t^2)||m_2||^2,
    which is Tr Re Z + |2 Im Z_12|, Z_jk = m_j^H m_k.  lo is the maximum
    over t of the minimum over y, one least-squares solve per t, maximised
    by golden section (the minimum is concave in t); hi is the maximum over
    t = +-1 at the program's own dual y."""
    m0, N = holevo_parts(problem)
    q = N.shape[1]

    def g(t):
        s = np.sqrt(1.0 - t * t)
        A = np.block([[N, 1j * t * N], [np.zeros_like(N), s * N]])
        rhs = np.concatenate([m0[:, 0] + 1j * t * m0[:, 1], s * m0[:, 1]])
        A, rhs = np.vstack([A.real, A.imag]), np.concatenate([rhs.real, rhs.imag])
        y = np.linalg.lstsq(A, -rhs, rcond=None)[0]
        return float(np.sum((A @ y + rhs) ** 2))

    a, b = -1.0, 1.0
    r = (np.sqrt(5.0) - 1.0) / 2.0
    c, e = b - r * (b - a), a + r * (b - a)
    gc, ge = g(c), g(e)
    while b - a > 1e-10:
        if gc < ge:
            a, c, gc = c, e, ge
            e = a + r * (b - a)
            ge = g(e)
        else:
            b, e, ge = e, c, gc
            c = b - r * (b - a)
            gc = g(c)
    lo = max(gc, ge)
    m = m0 + N @ dual_y[3:].reshape(2, q).T
    hi = max(float(np.sum(np.abs(m[:, 0] + 1j * s * m[:, 1]) ** 2)) for s in (1.0, -1.0))
    return lo, hi


SANDWICH_MODELS = {
    **{f"hb N={n}": lambda n=n: interferometer_model(holland_burnett_probe(n), 0.6) for n in (6, 8, 10)},
    **{f"random d={d}": lambda s=s, d=d: random_model(s, d, 2) for s, d in ((1, 6), (2, 8), (3, 10))},
    **{f"pd xy eps={e}": lambda e=e: phase_damping_model(e, "xy") for e in (0.5, 0.999)},
}


@pytest.mark.parametrize("name", SANDWICH_MODELS)
def test_two_parameter_holevo_lies_in_its_least_squares_bracket(name):
    result = holevo_bound(SANDWICH_MODELS[name]())
    v = result.value
    lo, hi = holevo_sandwich(result.problem, result.solution.dual_y)
    slack = 1e-9 * (1 + abs(v))
    assert lo - slack <= v <= hi + slack
