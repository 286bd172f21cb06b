"""Incidence bases and the numerical invariants of the scrolls they sweep.

A base in P^n is a multiset of subspace dimensions n_1 <= ... <= n_r.  The
lines meeting every base space sweep a scroll exactly when the spaces impose
2n - 3 independent conditions on the Grassmannian of lines, one short of its
dimension, so that the lines form a one-parameter family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .schubert import intersection_number

if TYPE_CHECKING:
    from .ruled import RuledSurfaceModel


class UnrealizableBaseError(ValueError):
    """Normalization drove a subspace dimension below zero: no lines remain."""


class BaseValidationError(ValueError):
    """A computation that needs a fully valid base received an invalid one."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(report.summary())


class SpecialityError(ValueError):
    """The nonspecial assumption (ambient = degree - 2 genus + 1) fails."""


class InternalConsistencyError(AssertionError):
    """Two routes that must agree produced different answers."""


@dataclass(frozen=True)
class IncidenceBase:
    """Ambient dimension n plus the sorted multiset of base-space dimensions."""

    ambient: int
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(sorted(self.dims)))
        if self.ambient < 2:
            raise ValueError("ambient projective dimension must be >= 2")
        for d in self.dims:
            if not 0 <= d <= self.ambient - 1:
                raise ValueError(
                    f"subspace dimension {d} outside [0, {self.ambient - 1}]"
                )

    @property
    def r(self) -> int:
        return len(self.dims)

    def condition_count(self) -> int:
        """Number of linear conditions the spaces impose on G(1, n)."""
        return sum(self.ambient - 1 - d for d in self.dims)

    def codims(self) -> tuple[int, ...]:
        return tuple(self.ambient - 1 - d for d in self.dims)

    def histogram(self) -> list[tuple[int, int]]:
        """(dimension, multiplicity) pairs in increasing dimension order."""
        out: list[tuple[int, int]] = []
        for d in self.dims:
            if out and out[-1][0] == d:
                out[-1] = (d, out[-1][1] + 1)
            else:
                out.append((d, 1))
        return out

    def spaces_str(self) -> str:
        parts = []
        for d, k in self.histogram():
            parts.append(f"{k} P^{d}" if k > 1 else f"P^{d}")
        return "{" + ", ".join(parts) + "}"

    def __str__(self) -> str:
        return f"{self.ambient}:{','.join(str(d) for d in self.dims)}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three independent base checks."""

    base: IncidenceBase
    conditions: int
    required: int
    hyperplanes: tuple[int, ...]
    degenerate_pairs: tuple[tuple[int, int], ...]

    @property
    def incidence_condition(self) -> bool:
        return self.conditions == self.required

    @property
    def no_hyperplanes(self) -> bool:
        return not self.hyperplanes

    @property
    def nondegenerate(self) -> bool:
        return not self.degenerate_pairs

    @property
    def all_ok(self) -> bool:
        return self.incidence_condition and self.no_hyperplanes and self.nondegenerate

    def summary(self) -> str:
        if self.all_ok:
            return f"{self.base} is a valid incidence base"
        problems = []
        if not self.incidence_condition:
            problems.append(
                f"imposes {self.conditions} conditions, needs {self.required}"
            )
        if not self.no_hyperplanes:
            problems.append(f"contains hyperplanes of dimension {list(self.hyperplanes)}")
        if not self.nondegenerate:
            problems.append(
                "degenerate pairs " + ", ".join(str(p) for p in self.degenerate_pairs)
            )
        return f"{self.base}: " + "; ".join(problems)


def validate(b: IncidenceBase) -> ValidationReport:
    """Check the curve condition, absence of hyperplanes, and nondegeneracy.

    The three checks are independent; hyperplanes impose no condition and
    a pair with n_i + n_j < n - 1 forces every line into a proper subspace.
    """
    n, dims = b.ambient, b.dims
    hyperplanes = tuple(d for d in dims if d >= n - 1)
    degenerate = []
    # dims is sorted, so each row of pair sums is increasing
    for i, di in enumerate(dims):
        for dj in dims[i + 1 :]:
            if di + dj >= n - 1:
                break
            if (di, dj) not in degenerate:
                degenerate.append((di, dj))
    return ValidationReport(
        base=b,
        conditions=b.condition_count(),
        required=2 * n - 3,
        hyperplanes=hyperplanes,
        degenerate_pairs=tuple(degenerate),
    )


def require_valid(b: IncidenceBase) -> None:
    report = validate(b)
    if not report.all_ok:
        raise BaseValidationError(report)


def normalize(b: IncidenceBase) -> IncidenceBase:
    """Drop hyperplanes and contract degenerate pairs until stable.

    A pair with n_i + n_j < n - 1 confines every line to the span
    P^M, M = n_i + n_j + 1; the pair keeps its dimensions there while every
    other space is cut down by the codimension n - M of the span.  Both
    steps preserve the condition-count defect, so a base satisfying the
    curve condition still satisfies it after normalization.  Pairs are
    reduced smallest dimension-sum first.
    """
    return IncidenceBase(*_normalize(b.ambient, b.dims))


def _normalize(ambient: int, dims: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    n = ambient
    out = sorted(dims)
    while True:
        out = [d for d in out if d <= n - 2]
        if len(out) < 2 or out[0] + out[1] >= n - 1:
            break
        ni, nj = out[0], out[1]
        span = ni + nj + 1
        if span < 2:
            raise UnrealizableBaseError(
                f"{IncidenceBase(ambient, dims)}: the lines through two general "
                f"points form no surface"
            )
        shift = n - span
        rest = [d - shift for d in out[2:]]
        if any(d < 0 for d in rest):
            raise UnrealizableBaseError(
                f"{IncidenceBase(ambient, dims)}: reducing pair ({ni}, {nj}) to "
                f"P^{span} empties the configuration"
            )
        out = sorted([ni, nj] + rest)
        n = span
    return n, tuple(out)


@lru_cache(maxsize=None)
def _degree(n: int, dims: tuple[int, ...]) -> int:
    return intersection_number(n, tuple(n - 1 - d for d in dims) + (1,))


def degree(b: IncidenceBase) -> int:
    """Degree of the swept scroll: the number of lines meeting every base
    space and one generic subspace of codimension 2."""
    require_valid(b)
    return _degree(b.ambient, b.dims)


def _directrix_degree(n: int, dims: tuple[int, ...], k: int) -> int:
    if dims[k] == 0:
        return 0
    codims = [n - 1 - d for i, d in enumerate(dims) if i != k]
    codims.append(n - dims[k])
    return intersection_number(n, codims)


def directrix_degree(b: IncidenceBase, k: int) -> int:
    """Degree of the directrix curve traced on the k-th base space.

    Counted as lines meeting all spaces with the k-th cut by a general
    hyperplane of itself, which raises its codimension condition by one and
    lands exactly in top degree.
    """
    require_valid(b)
    if not 0 <= k < b.r:
        raise ValueError(f"base space index {k} out of range")
    return _directrix_degree(b.ambient, b.dims, k)


def _min_directrix_degree(n: int, dims: tuple[int, ...]) -> int:
    # dims is sorted, so the first index of each distinct dimension suffices
    return min(
        _directrix_degree(n, dims, k)
        for k, d in enumerate(dims)
        if k == 0 or d != dims[k - 1]
    )


def min_directrix_degree(b: IncidenceBase) -> int:
    """Smallest directrix degree over the base spaces."""
    require_valid(b)
    return _min_directrix_degree(b.ambient, b.dims)


def formula_genus(b: IncidenceBase, deg: int | None = None) -> int:
    """Genus from the ambient-dimension formula, valid only for nonspecial
    linearly normal scrolls; raises SpecialityError otherwise."""
    d = degree(b) if deg is None else deg
    t = d + 1 - b.ambient
    if t < 0 or t % 2 != 0:
        raise SpecialityError(
            f"{b}: nonspecial assumption violated, degree {d} in P^{b.ambient} "
            f"admits no integer genus"
        )
    return t // 2


def _bundle_dict(bundle: RuledSurfaceModel | None) -> dict | None:
    """The JSON object of a bundle, shared by table rows and CLI records."""
    # e_trivial is the field: is_e_trivial also holds for every rational e = 0
    if bundle is None:
        return None
    return {
        "kind": bundle.kind,
        "base_genus": bundle.base_genus,
        "e": bundle.e,
        "e_trivial": bundle.e_divisor_trivial,
    }


@dataclass(frozen=True)
class ScrollInvariants:
    """Numerical data of the scroll swept by a base.

    divisor_degree is the degree m of the fiber part of the hyperplane
    divisor; speciality is the correction i in ambient = degree - 2 genus
    + 1 + i and is zero exactly when the genus formula applies.  bundle is
    the ruled-surface model of a genus <= 1 scroll and None above genus 1.
    """

    degree: int
    genus: int
    ambient: int
    e: int
    divisor_degree: int
    min_directrix_degree: int
    decomposable: bool
    speciality: int
    bundle: RuledSurfaceModel | None
