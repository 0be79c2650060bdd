import numpy as np
import pytest

import raytransport as rt


@pytest.fixture(scope="session")
def unit_model():
    return rt.constant_model(1.0)


@pytest.fixture(scope="session")
def demo_model():
    return rt.paper4_model()


@pytest.fixture(scope="session")
def demo_field():
    return rt.paper4_field()


@pytest.fixture(scope="session")
def unit_attenuation():
    return rt.constant_attenuation(1.0)


def bouguer_invariant(model, x, v) -> float:
    """Angular momentum n^2(x) (x1 v2 - x2 v1) of a 2D ray state.

    For rotationally symmetric media this is conserved along geodesics
    (Bouguer's law; equal to n |v| r sin(angle to the radial direction)
    times n, and to n r sin(angle) at metric unit speed).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = float(model.n(x))
    return n * n * float(x[0] * v[1] - x[1] * v[0])


def random_phase_points(model, count, seed, r_lo=0.1, r_hi=0.85):
    """Deterministic interior phase states, bounded away from center and boundary."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        r = r_lo + (r_hi - r_lo) * rng.random()
        ang = 2.0 * np.pi * rng.random()
        theta = 2.0 * np.pi * rng.random()
        x = np.array([r * np.cos(ang), r * np.sin(ang)])
        pts.append(rt.angle_phase_point(model, x, theta))
    return pts
