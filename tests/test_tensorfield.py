import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import raytransport as rt
from raytransport.tensorfield import SymmetricTensorField, _paper4_first, moment


class TestMoment:
    def test_rank0_ignores_direction(self):
        f = rt.constant_scalar_field(2.5)
        assert moment(f, 0.0, [0.1, 0.2], [1.0, 0.0]) == 2.5
        assert moment(f, 0.0, [0.1, 0.2], [0.0, -3.0]) == 2.5

    def test_rank1_dot_product(self):
        f = rt.constant_vector_field([1.0, 0.0])
        assert moment(f, 0.0, [0.0, 0.0], [0.3, 0.4]) == pytest.approx(0.3, abs=0)

    def test_demo_field_moment(self, demo_field):
        # (1/(x1^2 + x2^2 + 1), x1 + x2) . (1, 0) at (0.5, 0.5)
        val = moment(demo_field, 0.0, [0.5, 0.5], [1.0, 0.0])
        assert val == pytest.approx(1.0 / 1.5, rel=1e-14)

    def test_vectorized_evaluation(self, demo_field):
        x = np.random.default_rng(0).uniform(-0.5, 0.5, size=(7, 2))
        xi = np.random.default_rng(1).uniform(-1, 1, size=(7, 2))
        vals = moment(demo_field, 0.0, x, xi)
        singles = [moment(demo_field, 0.0, x[i], xi[i]) for i in range(7)]
        assert_allclose(vals, singles, rtol=0, atol=0)

    def test_dimension_mismatch(self, demo_field):
        with pytest.raises(ValueError):
            moment(demo_field, 0.0, [0.1, 0.2, 0.3], [1.0, 0.0, 0.0])

    @settings(max_examples=40, deadline=None)
    @given(lam=st.floats(-3, 3), rank=st.integers(0, 3))
    def test_degree_m_homogeneity(self, lam, rank):
        comps = {tuple(sorted(idx)): (lambda t, x: np.full(np.asarray(x).shape[:-1], 1.0))
                 for idx in [(0,) * rank]} if rank else {(): lambda t, x: np.full(np.asarray(x).shape[:-1], 1.0)}
        f = SymmetricTensorField(dim=2, rank=rank, components=comps)
        xi = np.array([0.4, -0.3])
        base = moment(f, 0.0, [0.1, 0.1], xi)
        scaled = moment(f, 0.0, [0.1, 0.1], lam * xi)
        assert scaled == pytest.approx(lam**rank * base, rel=1e-12, abs=1e-12)


def reference_moment(f, t, x, xi):
    """The moment as zeros of the leading shape plus one product per multi-index.

    This is the loop ``moment`` replaced: it visits every unsorted
    multi-index, looks its component up by the sorted one and adds the term
    to a zero array.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]))
    for idx in itertools.product(range(f.dim), repeat=f.rank):
        comp = f.components.get(tuple(sorted(idx)))
        if comp is None:
            continue
        term = np.asarray(comp(t, x), dtype=float)
        for i in idx:
            term = term * xi[..., i]
        out = out + term
    if f.switch_on:
        out = np.where(np.asarray(t) >= 0.0, out, 0.0)
    return out if out.shape else float(out)


def _product(t, x):
    return x[..., 0] * x[..., 1]


def _ramp(t, x):
    return (1.0 + t) * x[..., 0]


REFERENCE_FIELDS = {
    "rank0 constant": rt.constant_scalar_field(2.5),
    "rank0 bare float": SymmetricTensorField(dim=2, rank=0, components={(): lambda t, x: 1.5}),
    "rank0 product": SymmetricTensorField(dim=2, rank=0, components={(): _product}),
    "rank1 paper4": rt.paper4_field(),
    "rank1 bare float": SymmetricTensorField(
        dim=2, rank=1, components={(0,): lambda t, x: 0.5, (1,): _product}),
    "rank1 time-dependent": SymmetricTensorField(
        dim=2, rank=1, components={(1,): _ramp}, time_dependent=True),
    "rank2": SymmetricTensorField(
        dim=2, rank=2, components={(0, 0): _product, (0, 1): lambda t, x: -0.25, (1, 1): _ramp}),
    "rank2 off-diagonal only": SymmetricTensorField(dim=2, rank=2, components={(0, 1): _product}),
    "rank0 no components": SymmetricTensorField(dim=2, rank=0, components={}),
}


def _reference_cases():
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.7, 0.7, size=(7, 2))
    xi = rng.uniform(-1.0, 1.0, size=(7, 2))
    times = np.array([-0.5, 0.0, 1.25])
    return {
        "one state": (0.3, x[0], xi[0]),
        "batch": (0.3, x, xi),
        "one point, many directions": (0.3, x[0], xi),
        "batch, negative time": (-0.2, x, xi),
        "per-ray times": (np.linspace(-1.0, 1.0, 7), x, xi),
        "time columns": (times[None, :] + np.arange(7.0)[:, None] * 0.1 - 0.3, x[:, None], xi[:, None]),
        "shared time row": (times[None, :], x[:, None], xi[:, None]),
    }


class TestAgainstReferenceLoop:
    """``moment`` against the loop it replaced, value for value.

    ``moment`` starts its sum from the first term where the loop added every
    term to zeros, so the one difference allowed is the sign of an exact
    zero (0.0 + -0.0 is 0.0); ``assert_array_equal`` counts -0.0 equal to
    0.0 and every other value must match bit for bit.
    """

    @pytest.mark.parametrize("switch_on", [False, True], ids=["plain", "switch_on"])
    @pytest.mark.parametrize("case", list(_reference_cases()))
    @pytest.mark.parametrize("name", list(REFERENCE_FIELDS))
    def test_equals_reference(self, name, case, switch_on):
        f = REFERENCE_FIELDS[name]
        f = rt.with_switch_on(f) if switch_on else f
        t, x, xi = _reference_cases()[case]
        got = moment(f, t, x, xi)
        want = reference_moment(f, t, x, xi)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(got, want)

    def test_rank0_result_is_a_new_array(self):
        stored = np.array([1.0, 2.0, 3.0])
        f = SymmetricTensorField(dim=2, rank=0, components={(): lambda t, x: stored})
        out = moment(f, 0.0, np.zeros((3, 2)), np.ones((3, 2)))
        out[:] = -1.0
        assert list(stored) == [1.0, 2.0, 3.0]

    def test_terms_follow_replace(self, demo_field):
        """The term list is derived again when a copy gets new components."""
        g = dataclasses.replace(demo_field, components={(1,): _product})
        assert g.terms == ((_product, (1,)),)
        h = SymmetricTensorField(dim=2, rank=2, components={(0, 1): _product})
        assert h.terms == ((_product, (0, 1)), (_product, (1, 0)))


class TestSymmetry:
    def test_sorted_keys_enforced(self):
        with pytest.raises(ValueError):
            SymmetricTensorField(dim=2, rank=2, components={(1, 0): lambda t, x: 1.0})

    def test_contraction_sees_symmetric_part(self):
        """A rank-2 field keyed on sorted indices equals its symmetrization."""
        f = SymmetricTensorField(
            dim=2, rank=2,
            components={(0, 1): lambda t, x: np.full(np.asarray(x).shape[:-1], 2.0)},
        )
        xi = np.array([0.7, -0.2])
        # both (0,1) and (1,0) orderings contribute the same component
        assert moment(f, 0.0, [0, 0], xi) == pytest.approx(2 * 2.0 * xi[0] * xi[1], rel=1e-14)

    def test_linearity_in_field(self, demo_field):
        g = rt.constant_vector_field([0.5, -1.0])
        combined = SymmetricTensorField(
            dim=2, rank=1,
            components={
                (0,): lambda t, x: demo_field.components[(0,)](t, x) + 0.5,
                (1,): lambda t, x: demo_field.components[(1,)](t, x) - 1.0,
            },
        )
        x, xi = np.array([0.2, -0.4]), np.array([0.6, 0.8])
        assert moment(combined, 0.0, x, xi) == pytest.approx(
            moment(demo_field, 0.0, x, xi) + moment(g, 0.0, x, xi), rel=1e-13
        )


class TestDemoField:
    def test_component_values(self, demo_field):
        assert moment(demo_field, 0.0, [0.0, 0.0], [1.0, 0.0]) == 1.0
        assert moment(demo_field, 0.0, [0.0, 0.0], [0.0, 1.0]) == 0.0
        assert moment(demo_field, 0.0, [1.0, 0.0], [1.0, 0.0]) == 0.5
        assert moment(demo_field, 0.0, [1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_first_component_bits(self):
        """1 / (x1^2 + x2^2 + 1) bit for bit on row-major, component-major and strided
        (n, g, 2) points, in a fresh array that leaves x as it was; one point is a float."""
        rng = np.random.default_rng(5)
        rows = rng.uniform(-1.0, 1.0, (7, 3, 2))
        block = rng.uniform(-1.0, 1.0, (2, 2, 3, 7))  # (component, x|xi, turn, ray)
        for x in (rows, np.ascontiguousarray(rows.T).T, block[:, 0].T):
            before = x.copy()
            got = _paper4_first(0.0, x)
            assert np.array_equal(got, 1.0 / (x[..., 0] ** 2 + x[..., 1] ** 2 + 1.0))
            assert not np.shares_memory(got, x) and np.array_equal(x, before)
        one = _paper4_first(0.0, [0.3, -0.4])
        point = np.array([0.3, -0.4])
        assert isinstance(one, float) and one == 1.0 / (point[0] ** 2 + point[1] ** 2 + 1.0)

    def test_time_independence(self, demo_field):
        assert not demo_field.time_dependent
        a = moment(demo_field, -5.0, [0.3, 0.3], [1.0, 2.0])
        b = moment(demo_field, 17.0, [0.3, 0.3], [1.0, 2.0])
        assert a == b


class TestSwitchOn:
    def test_vanishes_before_zero(self, demo_field):
        f = rt.with_switch_on(demo_field)
        assert moment(f, -0.1, [0.2, 0.2], [1.0, 0.0]) == 0.0
        assert moment(f, 0.0, [0.2, 0.2], [1.0, 0.0]) == moment(demo_field, 0.0, [0.2, 0.2], [1.0, 0.0])

    def test_array_time(self, demo_field):
        f = rt.with_switch_on(demo_field)
        x = np.tile([0.2, 0.2], (3, 1))
        xi = np.tile([1.0, 0.0], (3, 1))
        t = np.array([-1.0, 0.5, 2.0])
        vals = moment(f, t, x, xi)
        assert vals[0] == 0.0
        assert vals[1] == vals[2] > 0.0


class TestParse:
    def test_forms(self):
        assert rt.parse_field("paper4").rank == 1
        f = rt.parse_field("constant-vec:1.0,2.0")
        assert moment(f, 0, [0, 0], [1, 1]) == 3.0
        f0 = rt.parse_field("constant-scalar:4.0")
        assert f0.rank == 0
        assert rt.parse_field("paper4", switch_on=True).switch_on

    def test_errors(self):
        with pytest.raises(ValueError):
            rt.parse_field("mystery")
        with pytest.raises(ValueError):
            rt.parse_field("constant-vec:1.0,2.0", dim=3)
