"""Symmetric rank-m tensor fields and their directional moments.

A field of rank m is stored as closures keyed by *sorted* multi-index, so
symmetry under index permutations holds by construction.  The only operation
downstream code needs is the moment

    f . xi^m = f_{i1...im}(t, x) xi_{i1} ... xi_{im}

contracted with euclidean components; it is degree-m homogeneous in xi and
linear in f.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .config import finite_float, finite_floats

ComponentFn = Callable[[object, np.ndarray], np.ndarray]  # (t, x) -> values


@dataclass(frozen=True)
class SymmetricTensorField:
    """Rank-m symmetric tensor field, optionally time-dependent.

    ``components`` maps sorted multi-indices (tuples of length ``rank``) to
    vectorized closures (t, x) -> value; missing indices are zero.  With
    ``switch_on`` the field vanishes for t < 0.  ``terms`` is derived: the
    (component, multi-index) pairs of the moment's sum, one per unsorted
    multi-index with a component, in the order :func:`moment` adds them.
    """

    dim: int
    rank: int
    components: Mapping[tuple[int, ...], ComponentFn]
    time_dependent: bool = False
    switch_on: bool = False
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for idx in self.components:
            if len(idx) != self.rank:
                raise ValueError(f"multi-index {idx} does not match rank {self.rank}")
            if tuple(sorted(idx)) != tuple(idx):
                raise ValueError(f"component keys must be sorted multi-indices, got {idx}")
            if any(i < 0 or i >= self.dim for i in idx):
                raise ValueError(f"multi-index {idx} out of range for dim {self.dim}")
        products = itertools.product(range(self.dim), repeat=self.rank)
        terms = [(self.components.get(tuple(sorted(idx))), idx) for idx in products]
        object.__setattr__(self, "terms", tuple((c, idx) for c, idx in terms if c is not None))

    @property
    def is_dynamic(self) -> bool:
        """Whether moments depend on t: through the components or the switch-on."""
        return self.time_dependent or self.switch_on


def moment(f: SymmetricTensorField, t, x, xi) -> np.ndarray:
    """Contract f(t, x) with xi^m; vectorized over leading axes of x and xi.

    ``t`` may be a scalar or an array broadcastable to the leading shape.
    The sum starts from its first term, so an exact zero may come out as -0.0;
    the result is a new array even when a component returns its own.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] != f.dim or x.shape[-1] != f.dim:
        raise ValueError(f"point/direction dimension does not match field dim {f.dim}")
    out = None
    for comp, idx in f.terms:
        # copy a rank-0 term: it is the result, which must not alias the component's array
        term = np.array(comp(t, x), dtype=float, copy=None if idx else True)
        for i in idx:
            term = term * xi[..., i]
        out = term if out is None else out + term
    lead = x.shape[:-1] if x.shape == xi.shape else np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])
    if out is None:
        out = np.zeros(lead)
    elif out.shape != lead and np.broadcast_shapes(out.shape, lead) != out.shape:
        out = np.zeros(lead) + out  # a term narrower than the leading shape
    if f.switch_on:
        out = np.where(np.asarray(t) >= 0.0, out, 0.0)
    return out if out.shape else float(out)


def with_switch_on(f: SymmetricTensorField) -> SymmetricTensorField:
    """Copy of f that vanishes for t < 0."""
    return dataclasses.replace(f, switch_on=True)


# ---------------------------------------------------------------------------
# builders (picklable closures: partials of module-level functions)
# ---------------------------------------------------------------------------

def _const_component(c: float, t, x):
    return np.full(np.asarray(x).shape[:-1], c)


def _paper4_first(t, x):
    """1 / (x1^2 + x2^2 + 1), summed in that order in one fresh array (a float at one point)."""
    x = np.asarray(x, dtype=float)
    d = x[..., 0] ** 2
    if not d.shape:
        return 1.0 / (d + x[..., 1] ** 2 + 1.0)
    d += x[..., 1] ** 2
    d += 1.0
    return np.divide(1.0, d, out=d)


def _paper4_second(t, x):
    x = np.asarray(x, dtype=float)
    return x[..., 0] + x[..., 1]


def paper4_field() -> SymmetricTensorField:
    """The bundled demo vector field (1/(x1^2 + x2^2 + 1), x1 + x2)."""
    return SymmetricTensorField(
        dim=2,
        rank=1,
        components={(0,): _paper4_first, (1,): _paper4_second},
    )


def constant_vector_field(values) -> SymmetricTensorField:
    """Rank-1 field with constant euclidean components."""
    values = [float(v) for v in values]
    comps = {(i,): partial(_const_component, v) for i, v in enumerate(values) if v != 0.0}
    return SymmetricTensorField(dim=len(values), rank=1, components=comps)


def constant_scalar_field(c: float, dim: int = 2) -> SymmetricTensorField:
    """Rank-0 field f(x) = c (the moment is c, independent of xi)."""
    return SymmetricTensorField(dim=dim, rank=0, components={(): partial(_const_component, float(c))})


def parse_field(spec: str, dim: int = 2, switch_on: bool = False) -> SymmetricTensorField:
    """Build a field from a config string.

    Accepted forms: ``paper4``, ``constant-vec:<c1,c2[,c3]>``,
    ``constant-scalar:<c>``.
    """
    spec = spec.strip()
    head, _, tail = spec.partition(":")
    try:
        if head == "paper4" and not tail:
            f = paper4_field()
        elif head == "constant-vec":
            f = constant_vector_field(finite_floats(tail))
        elif head == "constant-scalar":
            f = constant_scalar_field(finite_float(tail), dim=dim)
        else:
            raise ValueError("unknown field kind")
    except ValueError as exc:
        raise ValueError(f"bad field spec {spec!r}: {exc}") from None
    if f.dim != dim:
        raise ValueError(f"field spec {spec!r} has dim {f.dim}, expected {dim}")
    return with_switch_on(f) if switch_on else f
