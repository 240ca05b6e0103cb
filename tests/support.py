"""Test helpers: the batched geometry pass at one point, seeded random golden structures and
diagonal space-form models."""

import numpy as np

from goldenslant.spaceform import SpaceFormModel
from goldenslant.structures import (
    AlmostProductStructure,
    Metric,
    diagonal_golden,
    golden_from_product,
)
from goldenslant.submanifold import point_geometry


def at_point(imm, point, structure=None, metric=None):
    """:func:`~goldenslant.submanifold.point_geometry` of ``imm`` at the one ``point``
    (metric: the structure's unless given); its arrays keep a point axis of length 1."""
    return point_geometry(imm, structure.metric if metric is None else metric, structure,
                          [point])


def random_golden(n: int, p: int, seed: int):
    """Float golden structure on Euclidean R^n with a ``p``-dimensional psi-eigenspace.

    A signature matrix diag(+1 x p, -1 x (n-p)) is conjugated by a product
    of seeded Householder reflectors, which keeps ``F**2 = I`` and the
    Euclidean compatibility exact up to rounding.  Deterministic per
    ``(n, p, seed)``.
    """
    rng = np.random.default_rng(seed)
    q = np.eye(n)
    for _ in range(max(n - 1, 1)):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        q = q - 2.0 * np.outer(v, v @ q)
    f = q @ np.diag([1.0] * p + [-1.0] * (n - p)) @ q.T
    f = (f + f.T) / 2.0
    return golden_from_product(AlmostProductStructure(f, Metric.euclidean(n, backend="float")))


def diagonal_model(n: int, p: int, c_p: float, c_q: float) -> SpaceFormModel:
    """Space-form model on Euclidean R^n over the exact diagonal structure with psi on the
    first ``p`` axes and 1 - psi on the rest."""
    return SpaceFormModel(diagonal_golden(["psi"] * p + ["one_minus_psi"] * (n - p)), c_p, c_q)
