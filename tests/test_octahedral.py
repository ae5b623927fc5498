import numpy as np
import pytest
from hypothesis import given, strategies as st

from volmc.octahedral import (
    COMPOSE,
    IDENTITY,
    INVERSE,
    ROTATIONS,
    Transition,
    apply_rotation,
    fit_rotation,
    rotation_index,
)

rot_idx = st.integers(min_value=0, max_value=23)


def test_group_size_and_identity():
    assert len(ROTATIONS) == 24
    assert np.array_equal(ROTATIONS[IDENTITY], np.eye(3, dtype=ROTATIONS[0].dtype))


def test_rotations_are_distinct_and_orthogonal():
    seen = set()
    for R in ROTATIONS:
        seen.add(tuple(np.asarray(R).ravel()))
        assert np.array_equal(R @ R.T, np.eye(3, dtype=R.dtype))
        assert round(float(np.linalg.det(R))) == 1
    assert len(seen) == 24


@given(rot_idx, rot_idx)
def test_compose_table_matches_matrix_product(a, b):
    assert np.array_equal(ROTATIONS[COMPOSE[a, b]], ROTATIONS[a] @ ROTATIONS[b])


@given(rot_idx)
def test_inverse_table(a):
    assert COMPOSE[a, INVERSE[a]] == IDENTITY
    assert COMPOSE[INVERSE[a], a] == IDENTITY


@given(rot_idx)
def test_rotation_index_roundtrip(a):
    assert rotation_index(ROTATIONS[a]) == a


@given(rot_idx, st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)))
def test_apply_rotation_matches_matrix(a, v):
    assert np.array_equal(apply_rotation(a, v), ROTATIONS[a] @ np.array(v))


@given(rot_idx)
def test_fit_rotation_recovers_rotation(a):
    basis = [np.array(e, float) for e in np.eye(3)]
    images = [apply_rotation(a, e) for e in basis]
    assert fit_rotation(basis, images)[0] == a


def test_rotation_index_rejects_non_group_matrix():
    with pytest.raises(Exception):
        rotation_index(np.array([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))


@given(rot_idx, rot_idx,
       st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
       st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)))
def test_transition_compose_order(ra, rb, ta, tb):
    A = Transition(ra, ta)
    B = Transition(rb, tb)
    p = np.array([0.25, -1.5, 2.0])
    lhs = A.compose(B).apply(p)
    rhs = A.apply(B.apply(p))
    assert np.allclose(lhs, rhs)


@given(rot_idx, st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
def test_transition_inverse(r, t):
    T = Transition(r, tuple(float(x) for x in t))
    assert T.compose(T.inverse()).is_identity(tol=1e-12)
    assert T.inverse().compose(T).is_identity(tol=1e-12)


ints, floats = st.integers(-10**6, 10**6), st.floats(allow_nan=False)
translation = st.tuples(ints, ints, ints) | st.tuples(floats, floats, floats)


@given(rot_idx, rot_idx, translation, translation)
def test_transition_compose_is_exact(a, b, ta, tb):
    """compose gives the rotation of the COMPOSE table and the translation
    R_a tb + ta as computed through apply_rotation, bit for bit; int
    translations give plain ints."""
    got = Transition(a, ta).compose(Transition(b, tb))
    assert type(got.rot) is int and got.rot == COMPOSE[a, b]
    with np.errstate(all="ignore"):  # inf - inf and overflow, as in plain floats
        want = (apply_rotation(a, tb) + np.array(ta)).tolist()
    if all(type(x) is int for x in ta + tb):
        assert all(type(x) is int for x in got.t) and list(got.t) == want
    else:
        assert [float(x).hex() for x in got.t] == [float(x).hex() for x in want]
