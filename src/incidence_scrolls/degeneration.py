"""Degeneration calculus: splitting a scroll by joining two base spaces.

Sliding two base spaces P^(n_i), P^(n_j) into a common hyperplane forces
them to meet in a P^m, m = n_i + n_j - n + 1, and the scroll breaks into the
lines through that P^m (still in P^n) and the lines inside the hyperplane.
Degrees add, and the genus satisfies g = g1 + g2 + kappa - 1 where kappa is
the number of generators the two components share.

The degree and the genus of a scroll come from one K-theoretic Pieri pass,
schubert._degree_genus.  Running the split recursively computes the genus a
second way, without any nonspeciality assumption: that recursion, _genus, is
the independent check of the K-theoretic genus.  The audit and the genus
command compare the two routes on every base, and join checks one level of
the recursion on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .base import (
    IncidenceBase,
    InternalConsistencyError,
    ScrollInvariants,
    _min_directrix_degree,
    _normalize,
    require_valid,
)
from .ruled import model_for
from .schubert import _degree_genus, intersection_number


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


def _measure(n: int, dims: tuple[int, ...]) -> tuple[int, int]:
    """(degree, genus) of a trusted base, by the K-theoretic Pieri pass."""
    return _degree_genus(n, tuple(n - 1 - d for d in dims))


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
    normalized and measured by the K-theoretic pass.  The bookkeeping
    d = d1 + d2 and g = g1 + g2 + kappa - 1 is checked against the
    K-theoretic degree and genus of b itself.
    """
    require_valid(b)
    n = b.ambient
    m, dot, ddot, kappa = _split_parts(n, b.dims, i, j)
    beta_dot, beta_ddot = IncidenceBase(n, dot), IncidenceBase(n - 1, ddot)
    d, g = _measure(n, b.dims)
    # normalization keeps the curve condition and removes hyperplanes and
    # degenerate pairs, so both components are valid bases
    d1, g1 = (1, 0) if m == 0 else _measure(*_normalize(n, dot))
    d2, g2 = _measure(*_normalize(n - 1, ddot))
    if d1 + d2 != d:
        raise InternalConsistencyError(
            f"{b}: join degrees {d1} + {d2} != {d} for pair ({i}, {j})"
        )
    if g1 + g2 + kappa - 1 != g:
        raise InternalConsistencyError(
            f"{b}: join genera {g1} + {g2} + {kappa} - 1 != {g} for pair ({i}, {j})"
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
    """Genus of the swept scroll via the splitting recursion, the check of
    the K-theoretic genus.

    Independent of the ambient-dimension genus formula: the quadric of
    3:1,1,1 is rational, and otherwise the first two base spaces are joined
    and both components are measured recursively.  The value does not
    depend on the choice of pair (exercised in the tests).
    """
    require_valid(b)
    return _genus(b.ambient, b.dims)


@lru_cache(maxsize=None)
def _genus(n: int, dims: tuple[int, ...]) -> int:
    # a valid base in P^n, n >= 4, sweeps a scroll that spans P^n, of degree
    # at least n - 1 >= 3; the only valid bases below are 3:1,1,1, a
    # quadric, and 2:0, a plane
    if n <= 3:
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
    """The correction i in ambient = degree - 2 genus + 1 + i; zero for
    nonspecial linearly normal scrolls."""
    require_valid(b)
    return _speciality(b, *_measure(b.ambient, b.dims))


def verified_invariants(b: IncidenceBase) -> ScrollInvariants:
    """Scroll invariants with the degree and genus from the K-theoretic pass.

    This is the route to ScrollInvariants for one base, and it never assumes
    the nonspecial genus formula: the speciality field records exactly how
    far the base is from the nonspecial picture, and a genus <= 1 base is
    required to be nonspecial.
    """
    require_valid(b)
    return _scroll_invariants(b, *_measure(b.ambient, b.dims))


def _scroll_invariants(b: IncidenceBase, d: int, g: int) -> ScrollInvariants:
    """The invariants of a trusted base whose scroll has degree d and genus g;
    the enumeration reads (d, g) off its walk and comes in here."""
    n, dims = b.ambient, b.dims
    min_dir = _min_directrix_degree(n, dims)
    e = d - 2 * min_dir
    m = (d + e) // 2
    # in general position the two smallest spaces are disjoint exactly when
    # their dimension sum is n - 1; nondegeneracy rules out anything smaller
    decomposable = len(dims) < 2 or dims[0] + dims[1] == n - 1
    i = _speciality(b, d, g)
    if g <= 1 and i != 0:
        raise InternalConsistencyError(
            f"{b}: genus {g} scroll reported special (i = {i})"
        )
    return ScrollInvariants(
        degree=d,
        genus=g,
        ambient=n,
        e=e,
        divisor_degree=m,
        min_directrix_degree=min_dir,
        decomposable=decomposable,
        speciality=i,
        bundle=model_for(b, g, e, m, decomposable),
    )
