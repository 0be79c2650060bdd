from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import raytransport as rt
from conftest import dot_radial_accel
from raytransport.errors import DomainError
from raytransport.refractive import _dot, acceleration

MODELS = [
    rt.constant_model(1.0),
    rt.paper4_model(),
    rt.radial_poly_model([2.0, -0.5, 0.25]),
    rt.affine_model(2.0, [1.0, 0.0]),
    rt.affine_model(1.8, [0.3, -0.4]),
]

point_strategy = st.tuples(
    st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)
).map(np.array)


# Points whose euclidean norm exceeds 1 by more than this are outside the domain.
BALL_TOL = 1e-12


def check_in_ball(x) -> np.ndarray:
    """Validate that every point of x (..., dim) lies in the closed unit ball."""
    x = np.asarray(x, dtype=float)
    r2 = np.einsum("...i,...i->...", x, x)
    if np.any(r2 > (1.0 + BALL_TOL) ** 2):
        raise DomainError(f"point outside the closed unit ball: |x| = {np.sqrt(r2.max()):.6g}")
    return x


def metric_inner(model, x, u, v) -> float:
    """Metric inner product <u, v>_g = n^2(x) (u . v) at a point of the ball."""
    x = check_in_ball(x)
    return float(model.n(x) ** 2 * np.dot(np.asarray(u, dtype=float), np.asarray(v, dtype=float)))


def metric_norm(model, x, u) -> float:
    """Metric norm |u|_g = n(x) |u|."""
    return float(np.sqrt(metric_inner(model, x, u, u)))


def gradient_acceleration(model, x, v) -> np.ndarray:
    """(grad n |v|^2 - 2 v (grad n . v)) / n from the model's n_grad, dots in index order.

    The general closed form that the per-model ``accel`` kernels replace:
    the affine kernel must equal it bit for bit, the radial one to round-off.
    """
    n, g = model.n_grad(x)
    gv = _dot(g, v)
    v2 = _dot(v, v)
    return (g * v2[..., None] - 2.0 * v * gv[..., None]) / n[..., None]


def assert_near_gradient_form(model, x, v):
    """|a - gradient form| <= 16 eps |grad n| |v|^2 / n in every component of every row."""
    got = acceleration(model, x, v)
    want = gradient_acceleration(model, x, v)
    n, g = model.n_grad(x)
    bound = 16.0 * np.finfo(float).eps * np.sqrt(_dot(g, g)) * _dot(v, v) / n
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= bound[..., None])


def ball_states(dim, count, seed):
    """Random states with positions in the ball (the first at the center)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, dim))
    x *= rng.uniform(0.0, 1.0, (count, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    x[0] = 0.0
    return x, rng.standard_normal((count, dim))


def christoffel(model, x) -> np.ndarray:
    """Christoffel symbols of g = n^2 delta as an array G[k, i, j].

    G^k_ij = (d_j n delta_ik + d_i n delta_jk - d_k n delta_ij) / n,
    symmetric in the lower pair (i, j): the reference the closed-form ray
    acceleration is checked against.
    """
    x = check_in_ball(x)
    nv, g = model.n_grad(x)
    eye = np.eye(model.dim)
    return (
        np.einsum("j,ik->kij", g, eye)
        + np.einsum("i,jk->kij", g, eye)
        - np.einsum("k,ij->kij", g, eye)
    ) / float(nv)


def geodesic_acceleration(model, x, v) -> np.ndarray:
    """The closed-form ray acceleration at a single point of the ball."""
    return acceleration(model, check_in_ball(x), np.asarray(v, dtype=float))


def christoffel_from_metric(model, x, h=1e-6):
    """Brute-force Christoffels from the generic metric formula.

    Uses 0.5 g^{kp} (d_j g_ip + d_i g_jp - d_p g_ij) with the metric entries
    n^2 delta_ij differentiated by central differences; independent of the
    closed form under test.
    """
    d = model.dim

    def gmat(y):
        n = float(model.n(y))
        return n * n * np.eye(d)

    dg = np.zeros((d, d, d))
    for p in range(d):
        e = np.zeros(d)
        e[p] = h
        dg[p] = (gmat(x + e) - gmat(x - e)) / (2.0 * h)
    ginv = np.linalg.inv(gmat(x))
    gamma = np.zeros((d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(d):
                gamma[k, i, j] = 0.5 * sum(
                    ginv[k, p] * (dg[j][i, p] + dg[i][j, p] - dg[p][i, j]) for p in range(d)
                )
    return gamma


class TestMetricInner:
    def test_euclidean_case(self, unit_model):
        assert metric_inner(unit_model, [0.3, 0.1], [1, 0], [1, 0]) == 1.0

    def test_demo_origin(self, demo_model):
        # n(0) = 1.5, so n^2 = 2.25
        assert metric_inner(demo_model, [0.0, 0.0], [1, 0], [1, 0]) == pytest.approx(2.25, abs=0)

    def test_orthogonality_preserved(self, demo_model):
        assert metric_inner(demo_model, [0.2, -0.5], [1, 0], [0, 1]) == 0.0

    def test_outside_ball_rejected(self, demo_model):
        with pytest.raises(DomainError):
            metric_inner(demo_model, [1.2, 0.0], [1, 0], [1, 0])

    @settings(max_examples=30, deadline=None)
    @given(x=point_strategy, u=point_strategy, v=point_strategy)
    def test_conformal_consistency(self, x, u, v):
        model = rt.paper4_model()
        n2 = float(model.n(x)) ** 2
        assert metric_inner(model, x, u, v) == pytest.approx(n2 * np.dot(u, v), rel=1e-14, abs=1e-14)
        norm = metric_norm(model, x, u)
        assert norm == pytest.approx(float(model.n(x)) * np.linalg.norm(u), rel=1e-12, abs=1e-12)


class TestChristoffel:
    def test_constant_index_vanishes(self, unit_model):
        assert_allclose(christoffel(unit_model, [0.3, -0.2]), 0.0)

    def test_demo_values(self, demo_model):
        # at (0.5, 0): n = 1.75, grad n = (1, 0)
        g = christoffel(demo_model, [0.5, 0.0])
        assert g[0, 0, 0] == pytest.approx(1.0 / 1.75, rel=1e-12)
        assert g[0, 1, 1] == pytest.approx(-1.0 / 1.75, rel=1e-12)
        assert g[1, 0, 1] == pytest.approx(1.0 / 1.75, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(x=point_strategy)
    def test_lower_index_symmetry(self, x):
        g = christoffel(rt.paper4_model(), x)
        assert_allclose(g, np.swapaxes(g, 1, 2), rtol=0, atol=0)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_matches_generic_metric_formula(self, model):
        rng = np.random.default_rng(7)
        for _ in range(4):
            x = rng.uniform(-0.6, 0.6, size=model.dim)
            got = christoffel(model, x)
            want = christoffel_from_metric(model, x)
            assert_allclose(got, want, rtol=1e-6, atol=1e-6)


class TestAcceleration:
    def test_straight_medium(self, unit_model):
        assert_allclose(geodesic_acceleration(unit_model, [0.1, 0.2], [0.5, -0.3]), 0.0)

    def test_demo_value(self, demo_model):
        a = geodesic_acceleration(demo_model, [0.5, 0.0], [0.0, 1.0])
        assert_allclose(a, [1.0 / 1.75, 0.0], rtol=1e-12)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_closed_form_equals_contraction(self, model):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-0.6, 0.6, size=model.dim)
            v = rng.uniform(-1.0, 1.0, size=model.dim)
            closed = geodesic_acceleration(model, x, v)
            gamma = christoffel(model, x)
            contracted = -np.einsum("kij,i,j->k", gamma, v, v)
            assert_allclose(closed, contracted, rtol=1e-12, atol=1e-12)


    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_batched_equals_einsum_form(self, model):
        """The affine kernel is the gradient form with index-order sums, as einsum
        sums in 2D: equal bit for bit.  The radial closed form reorders the
        arithmetic, so it is held to the round-off bound instead."""
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.6, 0.6, size=(500, 2))
        v = rng.uniform(-1.0, 1.0, size=(500, 2))
        if model.name.startswith("affine"):
            n, g = model.n_grad(x)
            gv = np.einsum("...i,...i->...", g, v)
            v2 = np.einsum("...i,...i->...", v, v)
            want = (g * v2[..., None] - 2.0 * v * gv[..., None]) / n[..., None]
            assert np.array_equal(acceleration(model, x, v), want)
        else:
            assert_near_gradient_form(model, x, v)

    @pytest.mark.parametrize("model", MODELS + [rt.paper4_model(dim=3), rt.affine_model(2.0, [0.3, -0.2, 0.5])],
                             ids=lambda m: f"{m.name}-{m.dim}d")
    def test_single_point(self, model):
        """A (dim,) state gives a (dim,) acceleration equal to its row of the batch."""
        x, v = ball_states(model.dim, 6, 9)
        batch = acceleration(model, x, v)
        for i in range(x.shape[0]):
            a = acceleration(model, x[i], v[i])
            assert a.shape == (model.dim,)
            assert a.tobytes() == batch[i].tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_affine_bytes_equal_gradient_form(self, dim):
        model = rt.affine_model(2.0, [0.3, -0.2, 0.5][:dim])
        x, v = ball_states(dim, 4000, 21)
        assert acceleration(model, x, v).tobytes() == gradient_acceleration(model, x, v).tobytes()


def _radial_n_grad_reference(coeffs, x):
    """The radial kernel with Horner started from zero: the reference the trimmed kernel must equal."""
    x = np.asarray(x, dtype=float)
    s = _dot(x, x)
    n = np.zeros_like(s)
    for c in reversed(coeffs):
        n = n * s + c
    dn = np.zeros_like(s)
    for k in range(len(coeffs) - 1, 0, -1):
        dn = dn * s + k * coeffs[k]
    return n, 2.0 * dn[..., None] * x


RADIAL_BUILDERS = {
    "constant": partial(rt.constant_model, 1.3),
    "paper4": rt.paper4_model,
    "radial3": partial(rt.radial_poly_model, [2.0, -0.5, 0.25]),
    "radial4": partial(rt.radial_poly_model, [1.2, 0.4, -0.3, 0.25]),
}


class TestRadialKernel:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("build", [RADIAL_BUILDERS[k] for k in ("constant", "paper4", "radial4")],
                             ids=["constant", "paper4", "radial4"])
    def test_bytes_equal_reference(self, build, dim):
        model = build(dim=dim)
        coeffs = model.n_grad.args[0]
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((4000, dim))
        x *= rng.uniform(0.0, 1.0, (4000, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
        x[0] = 0.0
        for got, want in zip(model.n_grad(x), _radial_n_grad_reference(coeffs, x)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("name", list(RADIAL_BUILDERS))
    def test_acceleration_near_gradient_form(self, name, dim):
        model = RADIAL_BUILDERS[name](dim=dim)
        x, v = ball_states(dim, 4000, 10 + dim)
        assert_near_gradient_form(model, x, v)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("spec", ["paper4", "constant:1.3", "radial:1,-0.45"])
    def test_acceleration_bytes_equal_dot_reference(self, spec, dim):
        """Component-major and row-major batches and single states give the bytes of the
        kernel that sums |x|^2, |v|^2 and x . v with three ``_dot`` calls."""
        model = rt.parse_model(spec, dim=dim)
        x, v = ball_states(dim, 4000, 30 + dim)
        major = (np.ascontiguousarray(x.T).T, np.ascontiguousarray(v.T).T)
        cases = [(x, v), major] + [(x[i], v[i]) for i in range(5)]
        for xs, vs in cases:
            got, want = acceleration(model, xs, vs), dot_radial_accel(*model.accel.args, xs, vs)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_constant_medium_has_no_acceleration(self, dim):
        x, v = ball_states(dim, 100, 3)
        assert np.all(acceleration(rt.constant_model(1.3, dim=dim), x, v) == 0.0)


class TestModelDerivatives:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_gradient_matches_finite_differences(self, model):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(5):
            x = rng.uniform(-0.6, 0.6, size=model.dim)
            g = np.asarray(model.grad_n(x))
            for i in range(model.dim):
                e = np.zeros(model.dim)
                e[i] = h
                fd = (float(model.n(x + e)) - float(model.n(x - e))) / (2.0 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_floor_certifies_positivity(self, model):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1.0, 1.0, size=(4000, model.dim))
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        assert np.all(np.asarray(model.n(pts)) >= model.floor - 1e-12)


class TestCoercivityMargin:
    def test_straight_medium(self, unit_model):
        rep = rt.coercivity_margin(unit_model, 0.01)
        assert rep.sup_riemannian == 0.0
        assert rep.sup_euclidean == 0.0
        assert rep.satisfied

    def test_demo_model_margins(self, demo_model):
        # analytic maxima: 2r/(r^2+1.5)^2 at r = 1/sqrt(2), 2r/(r^2+1.5) at r = 1
        rep = rt.coercivity_margin(demo_model, 1.0)
        assert rep.sup_riemannian == pytest.approx(np.sqrt(2.0) / 4.0, abs=1e-3)
        assert rep.sup_euclidean == pytest.approx(0.8, abs=1e-3)
        assert rep.satisfied

    def test_affine_fails_euclidean_reading(self):
        rep = rt.coercivity_margin(rt.affine_model(2.0, [1.0, 0.0]), 0.4)
        assert rep.sup_euclidean == pytest.approx(1.0, abs=1e-3)
        assert rep.sup_euclidean > rep.alpha0

    def test_bad_alpha0(self, demo_model):
        with pytest.raises(ValueError):
            rt.coercivity_margin(demo_model, 0.0)


class TestRegistry:
    def test_parse_forms(self):
        assert rt.parse_model("paper4").name == "paper4"
        assert float(rt.parse_model("constant:2.5").n(np.zeros(2))) == 2.5
        m = rt.parse_model("radial:1.5,1")
        x = np.array([0.3, -0.4])
        assert float(m.n(x)) == pytest.approx(0.25 + 1.5)
        m3 = rt.parse_model("affine:2,1,0,0", dim=3)
        assert float(m3.n(np.array([0.5, 0, 0]))) == 2.5

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            rt.parse_model("nonsense")
        with pytest.raises(ValueError):
            rt.parse_model("affine:2,1", dim=3)
        with pytest.raises(ValueError):
            rt.parse_model("constant:abc")

    def test_nonpositive_models_rejected(self):
        with pytest.raises(ValueError):
            rt.affine_model(1.0, [1.0, 0.5])
        with pytest.raises(ValueError):
            rt.radial_poly_model([-1.0])

    def test_demo_3d_extension(self):
        m3 = rt.paper4_model(dim=3)
        assert float(m3.n(np.array([0.1, 0.2, 0.3]))) == pytest.approx(0.14 + 1.5)
