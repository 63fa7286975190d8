import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halflearn.core import (
    LabeledDataset,
    MultiIndex,
    RngSeed,
    UnitVector,
    angle_between,
    count_multi_indices,
    exponent_tuples,
    project_to_sphere,
)
from halflearn.errors import DimensionMismatchError, ZeroVectorError

FINITE_COORDS = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=8
).filter(lambda v: math.sqrt(sum(x * x for x in v)) > 1e-6)


def test_project_examples():
    assert np.allclose(project_to_sphere([2.0, 0.0, 0.0]).coords, [1, 0, 0])
    assert np.allclose(project_to_sphere([3.0, 4.0]).coords, [0.6, 0.8])
    with pytest.raises(ZeroVectorError):
        project_to_sphere([0.0, 0.0])


@given(FINITE_COORDS)
@settings(max_examples=100, deadline=None)
def test_project_idempotent(coords):
    w = project_to_sphere(coords)
    again = project_to_sphere(w.coords)
    assert np.max(np.abs(again.coords - w.coords)) <= 1e-12


def test_angle_examples():
    e1 = project_to_sphere([1.0, 0.0, 0.0])
    e2 = project_to_sphere([0.0, 1.0, 0.0])
    assert angle_between(e1, e1) == 0.0
    assert abs(angle_between(e1, e2) - math.pi / 2) < 1e-15
    assert abs(angle_between(e1, e1.negated()) - math.pi) < 1e-15
    with pytest.raises(DimensionMismatchError):
        angle_between(e1, project_to_sphere([1.0, 0.0]))


def test_angle_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(200):
        u, v, w = (project_to_sphere(rng.standard_normal(5)) for _ in range(3))
        assert angle_between(u, v) == angle_between(v, u)
        assert angle_between(u, w) <= angle_between(u, v) + angle_between(v, w) + 1e-9


def _brute_multi_indices(d, k):
    return sorted(
        t for t in itertools.product(range(k + 1), repeat=d) if sum(t) == k
    )


def test_enumerate_examples():
    assert list(exponent_tuples(2, 1)) == [(1, 0), (0, 1)]
    assert list(exponent_tuples(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    got = list(exponent_tuples(3, 2))
    assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert len(got) == math.comb(4, 2) == 6
    assert sorted(got) == _brute_multi_indices(3, 2)


@pytest.mark.parametrize("d,k", [(2, 3), (3, 4), (5, 3), (4, 0)])
def test_enumerate_matches_brute_force(d, k):
    got = list(exponent_tuples(d, k))
    assert got == sorted(_brute_multi_indices(d, k), reverse=True)
    assert len(set(got)) == len(got) == count_multi_indices(d, k)
    assert all(sum(t) == k for t in got)


def test_multi_index_degree():
    m = MultiIndex((2, 0, 3))
    assert m.degree == 5 and m.d == 3
    with pytest.raises(ValueError):
        MultiIndex((-1, 2))


def test_unit_vector_validation():
    with pytest.raises(ValueError):
        UnitVector(np.array([1.0, 1.0]))  # not unit norm
    with pytest.raises(ValueError):
        UnitVector(np.array([1.0]))  # d < 2
    w = UnitVector(np.array([0.0, 1.0]))
    assert w.negated() == UnitVector(np.array([0.0, -1.0]))


def test_unit_vectors_equal_up_to_signed_zeros_hash_equal():
    a, b = UnitVector(np.array([0.0, 1.0])), UnitVector(np.array([-0.0, 1.0]))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(a.negated()) == hash(UnitVector(np.array([0.0, -1.0])))  # negated() makes -0.0
    assert a.coords.tobytes() != b.coords.tobytes()  # the coordinates themselves keep their sign


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.ones((3, 2)), np.ones(2))
    with pytest.raises(ValueError):
        LabeledDataset(np.ones((3, 2)), np.array([1.0, 0.5, -1.0]))
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.inf, 0.0]]), np.array([1.0]))
    ds = LabeledDataset(np.ones((3, 2)), np.array([1.0, -1.0, 1.0]))
    assert ds.n == 3 and ds.d == 2


def test_rng_seed_streams():
    s = RngSeed(12345)
    a = s.generator(1).standard_normal(8)
    b = s.generator(1).standard_normal(8)
    c = s.generator(2).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert s.child(3) == s.child(3) and s.child(3) != s.child(4)
    with pytest.raises(ValueError):
        RngSeed(-1)
