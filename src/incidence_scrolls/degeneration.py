"""Degeneration calculus: splitting a scroll by joining two base spaces.

Sliding two base spaces P^(n_i), P^(n_j) into a common hyperplane forces
them to meet in a P^m, m = n_i + n_j - n + 1, and the scroll breaks into the
lines through that P^m (still in P^n) and the lines inside the hyperplane.
Degrees add, and the genus satisfies g = g1 + g2 + kappa - 1 where kappa is
the number of generators the two components share.  Running the split
recursively computes the genus without any nonspeciality assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .base import (
    IncidenceBase,
    InternalConsistencyError,
    ScrollInvariants,
    _core_invariants,
    _degree,
    _normalize,
    require_valid,
)
from .ruled import model_for
from .schubert import intersection_number


@dataclass(frozen=True)
class DegenerationSplit:
    """Both components of a join, before normalization, with their data.

    beta_dot lives in P^n and contains the forced intersection P^m;
    beta_ddot lives in the hyperplane P^(n-1).  (d1, g1) and (d2, g2) are
    the degree and genus of the normalized components; kappa counts their
    common generators.
    """

    m: int
    beta_dot: IncidenceBase
    beta_ddot: IncidenceBase
    kappa: int
    d1: int
    g1: int
    d2: int
    g2: int


def _split_parts(
    n: int, dims: tuple[int, ...], i: int, j: int
) -> tuple[int, tuple[int, ...], tuple[int, ...], int]:
    """(m, dims of beta_dot in P^n, dims of beta_ddot in P^(n-1), kappa)."""
    if i == j or not (0 <= i < len(dims) and 0 <= j < len(dims)):
        raise ValueError(f"need two distinct base-space indices, got ({i}, {j})")
    ni, nj = dims[i], dims[j]
    rest = tuple(d for k, d in enumerate(dims) if k not in (i, j))
    m = ni + nj - n + 1
    if m < 0:
        raise InternalConsistencyError(
            f"{IncidenceBase(n, dims)}: join pair ({ni}, {nj}) has empty meet"
        )
    dot = (m,) + rest
    ddot = (ni, nj) + tuple(d - 1 for d in rest)
    for ambient, comp in ((n, dot), (n - 1, ddot)):
        if sum(ambient - 1 - d for d in comp) != 2 * ambient - 3:
            raise InternalConsistencyError(
                f"join component {IncidenceBase(ambient, comp)} violates the curve condition"
            )
    kappa_codims = (n - 2 - m,) + tuple(n - 1 - d for d in rest)
    kappa = intersection_number(n - 1, kappa_codims)
    return m, dot, ddot, kappa


def join(b: IncidenceBase, i: int, j: int) -> DegenerationSplit:
    """Split the scroll of b by joining base spaces i and j.

    kappa is the count of lines inside the hyperplane through the forced
    P^m that still meet every reduced space, an intersection number in
    G(1, n-1) of automatically full codimension.  When m = 0 the first
    component is a plane, (d1, g1) = (1, 0); otherwise both components are
    normalized and measured recursively.  The degree bookkeeping
    d = d1 + d2 is checked against independent Schubert computations.
    """
    require_valid(b)
    m, dot, ddot, kappa = _split_parts(b.ambient, b.dims, i, j)
    beta_dot, beta_ddot = IncidenceBase(b.ambient, dot), IncidenceBase(b.ambient - 1, ddot)
    d = _degree(b.ambient, b.dims)
    # normalization keeps the curve condition and removes hyperplanes and
    # degenerate pairs, so both components are valid bases
    if m == 0:
        d1, g1 = 1, 0
    else:
        comp = _normalize(beta_dot.ambient, beta_dot.dims)
        d1, g1 = _degree(*comp), _genus(*comp)
    comp2 = _normalize(beta_ddot.ambient, beta_ddot.dims)
    d2, g2 = _degree(*comp2), _genus(*comp2)
    if d1 + d2 != d:
        raise InternalConsistencyError(
            f"{b}: join degrees {d1} + {d2} != {d} for pair ({i}, {j})"
        )
    return DegenerationSplit(m, beta_dot, beta_ddot, kappa, d1, g1, d2, g2)


def separate(
    b: IncidenceBase,
    i: int,
    j: int | None = None,
    add_hyperplane: bool = False,
) -> IncidenceBase:
    """Inverse of an m = 0 join: pull two spaces meeting in a point apart
    into P^(n+1).

    The designated pair must satisfy n_i + n_j = n.  With add_hyperplane a
    virtual hyperplane (which imposes no condition) plays the role of j, so
    the pair condition forces n_i = 1.  The pair keeps its dimensions while
    every other space grows by one; the degree rises by exactly one and the
    genus is unchanged.
    """
    require_valid(b)
    n = b.ambient
    if not 0 <= i < b.r:
        raise ValueError(f"base space index {i} out of range")
    ni = b.dims[i]
    if add_hyperplane:
        nj = n - 1
        rest = tuple(d for k, d in enumerate(b.dims) if k != i)
    else:
        if j is None:
            raise ValueError("separate needs a second index unless add_hyperplane is set")
        if j == i or not 0 <= j < b.r:
            raise ValueError(f"need two distinct base-space indices, got ({i}, {j})")
        nj = b.dims[j]
        rest = tuple(d for k, d in enumerate(b.dims) if k not in (i, j))
    if ni + nj != n:
        raise ValueError(
            f"{b}: pair ({ni}, {nj}) does not meet in a single point "
            f"(need dimension sum {n})"
        )
    out = IncidenceBase(n + 1, (ni, nj) + tuple(d + 1 for d in rest))
    if out.condition_count() != 2 * out.ambient - 3:
        raise InternalConsistencyError(f"separate broke the curve condition: {out}")
    return out


def genus_by_degeneration(b: IncidenceBase) -> int:
    """Genus of the swept scroll via the splitting recursion.

    Independent of the ambient-dimension genus formula: scrolls of degree
    <= 2 are rational, and otherwise the first two base spaces are joined
    and both components are measured recursively.  The value does not
    depend on the choice of pair (exercised in the tests).
    """
    require_valid(b)
    return _genus(b.ambient, b.dims)


@lru_cache(maxsize=None)
def _genus(n: int, dims: tuple[int, ...]) -> int:
    if _degree(n, dims) <= 2:
        return 0
    m, dot, ddot, kappa = _split_parts(n, dims, 0, 1)
    g1 = 0 if m == 0 else _genus(*_normalize(n, dot))
    g2 = _genus(*_normalize(n - 1, ddot))
    return g1 + g2 + kappa - 1


def _speciality(b: IncidenceBase, d: int, g: int) -> int:
    i = b.ambient - 1 - d + 2 * g
    if i < 0:
        raise InternalConsistencyError(
            f"{b}: negative speciality {i} (degree {d}, genus {g})"
        )
    return i


def speciality(b: IncidenceBase) -> int:
    """The correction i in ambient = degree - 2 genus + 1 + i, with the genus
    taken from the degeneration recursion; zero for nonspecial linearly
    normal scrolls."""
    require_valid(b)
    return _speciality(b, _degree(b.ambient, b.dims), _genus(b.ambient, b.dims))


def verified_invariants(b: IncidenceBase) -> ScrollInvariants:
    """Scroll invariants with the genus from the degeneration recursion.

    This is the only route to ScrollInvariants, and it never assumes the
    nonspecial genus formula: the speciality field records exactly how far
    the base is from the nonspecial picture, and a genus <= 1 base is
    required to be nonspecial.
    """
    require_valid(b)
    d, min_dir, e, m, decomposable = _core_invariants(b.ambient, b.dims)
    g = _genus(b.ambient, b.dims)
    i = _speciality(b, d, g)
    if g <= 1 and i != 0:
        raise InternalConsistencyError(
            f"{b}: genus {g} scroll reported special (i = {i})"
        )
    return ScrollInvariants(
        degree=d,
        genus=g,
        ambient=b.ambient,
        e=e,
        divisor_degree=m,
        min_directrix_degree=min_dir,
        decomposable=decomposable,
        speciality=i,
        bundle=model_for(b, g, e, m, decomposable),
    )
