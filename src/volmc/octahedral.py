"""The 24-element octahedral rotation group as signed permutation matrices.

Rotations are indexed 0..23 with index 0 the identity. All group
operations (composition, inversion, application to vectors) are table
driven and exact, since matrix entries are confined to {-1, 0, 1}.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "ROTATIONS",
    "IDENTITY",
    "COMPOSE",
    "INVERSE",
    "rotation_index",
    "apply_rotation",
    "Transition",
]


def _build_rotations():
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = np.zeros((3, 3), dtype=np.int64)
            for row, (col, sign) in enumerate(zip(perm, signs)):
                m[row, col] = sign
            if round(np.linalg.det(m)) == 1:
                mats.append(m)
    assert len(mats) == 24
    # Identity first, remainder in lexicographic order of the flat entries.
    mats.sort(key=lambda m: (not np.array_equal(m, np.eye(3, dtype=np.int64)), m.ravel().tolist()))
    return tuple(m for m in mats)


ROTATIONS = _build_rotations()
IDENTITY = 0

_INDEX = {tuple(m.ravel().tolist()): i for i, m in enumerate(ROTATIONS)}

COMPOSE = np.zeros((24, 24), dtype=np.int64)
INVERSE = np.zeros(24, dtype=np.int64)
for _i, _a in enumerate(ROTATIONS):
    for _j, _b in enumerate(ROTATIONS):
        COMPOSE[_i, _j] = _INDEX[tuple((_a @ _b).ravel().tolist())]
    INVERSE[_i] = _INDEX[tuple(_a.T.ravel().tolist())]

# fit_rotation's largest accepted residual, relative to the data scale.
FIT_REL_TOL = 1e-6

_ROT_FLOAT = np.array(ROTATIONS, dtype=float)
# Row j of rotation r takes coordinate _PERM[r, j] with sign _SIGN[r, j].
_PERM, _SIGN = np.abs(_ROT_FLOAT).argmax(-1), _ROT_FLOAT.sum(-1)
_ROWS = tuple(tuple(tuple(int(x) for x in row) for row in m) for m in ROTATIONS)
_COMPOSE = COMPOSE.tolist()


def rotation_index(mat) -> int:
    """Exact lookup of a signed permutation matrix; raises KeyError if not in the group."""
    key = tuple(int(round(x)) for x in np.asarray(mat).ravel())
    return _INDEX[key]


def apply_rotation(rot: int, vec):
    """Apply rotation ``rot`` to a 3-vector. Exact for exact inputs (entries only permuted/negated)."""
    (a, b, c), (d, e, f), (g, h, i) = _ROWS[rot]
    x, y, z = vec[0], vec[1], vec[2]
    return np.array([a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z])


def fit_rotation(vecs_from, vecs_to):
    """Best octahedral rotation carrying each vector in ``vecs_from`` to its partner.

    Returns (index, max_abs_residual) of the best fit, the lowest index on a
    tie, or (None, residual) if no rotation matches within ``FIT_REL_TOL``
    relative to the data scale. Stacks of (..., n, 3) pairs are fitted in
    one pass; their indices come back as an array, with -1 for no match.
    """
    a = np.asarray(vecs_from, dtype=float)
    b = np.asarray(vecs_to, dtype=float)
    # Rotations only permute and negate coordinates: a gather applies them
    # exactly, and no matrix product wakes BLAS threads that compete for CPUs.
    moved = a[..., _PERM] * _SIGN  # (..., n, rotation, 3)
    err = np.abs(moved - b[..., None, :]).max(axis=(-3, -1), initial=0.0)
    best, best_err = err.argmin(axis=-1), err.min(axis=-1)
    scale = np.maximum(1.0, np.abs(np.concatenate([a, b], axis=-2)).max(axis=(-2, -1), initial=0.0))
    fits = ~(best_err > FIT_REL_TOL * scale)
    if a.ndim == 2:
        return (int(best) if fits else None), float(best_err)
    return np.where(fits, best, -1), best_err


class Transition:
    """Rigid chart-to-chart map: octahedral rotation followed by a translation.

    The rotation is stored as a group index; the translation as a plain
    3-tuple (kept generic so exact Fraction translations work too).
    Composition is exact: plain tuple sums in ``apply``'s order, so bit for bit.
    """

    __slots__ = ("rot", "t")

    def __init__(self, rot: int = IDENTITY, t=(0.0, 0.0, 0.0)):
        self.rot = int(rot)
        self.t = tuple(t)

    def apply(self, p):
        q = apply_rotation(self.rot, p)
        return np.array([q[0] + self.t[0], q[1] + self.t[1], q[2] + self.t[2]])

    def apply_vector(self, v):
        return apply_rotation(self.rot, v)

    def compose(self, other: "Transition") -> "Transition":
        """Map equal to applying ``other`` first, then ``self``."""
        ((a, b, c), (d, e, f), (g, h, i)), (x, y, z), (u, v, w) = _ROWS[self.rot], other.t, self.t
        return Transition(_COMPOSE[self.rot][other.rot], (
            a * x + b * y + c * z + u, d * x + e * y + f * z + v, g * x + h * y + i * z + w))

    def inverse(self) -> "Transition":
        inv = int(INVERSE[self.rot])
        t = apply_rotation(inv, self.t)
        return Transition(inv, (-t[0], -t[1], -t[2]))

    def is_identity(self, tol: float = 0.0) -> bool:
        return self.rot == IDENTITY and all(abs(x) <= tol for x in self.t)

    def __eq__(self, other):
        return isinstance(other, Transition) and self.rot == other.rot and self.t == other.t

    def __hash__(self):
        return hash((self.rot, self.t))

    def __repr__(self):
        return f"Transition(rot={self.rot}, t={self.t})"
