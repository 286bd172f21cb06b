"""Section counts and incidence predicates for ruled surfaces of genus 0 and 1.

A scroll model is the data (g, e, m): the base-curve genus, the invariant e
of the normalized rank-2 bundle, and the degree m of the fiber part of the
hyperplane divisor C_0 + bf.  Everything here is arithmetic in those
integers; divisor classes on an elliptic base enter only through their
degree and a triviality flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import IncidenceBase, InternalConsistencyError, normalize

# the unique base whose elliptic e = 0 scroll has a trivial normalizing divisor
_TRIVIAL_DIVISOR_BASE = IncidenceBase(7, (3, 3, 3, 5, 5))


def h0_rational(a: int, m: int, e: int) -> int:
    """Sections of a C_0 + m f on the rational ruled surface with invariant e.

    Pushing forward to P^1 gives the sum of h^0(O(m - j e)) for j = 0..a.
    """
    if a < 0 or e < 0:
        raise ValueError("need a >= 0 and e >= 0")
    return sum(max(0, m - j * e + 1) for j in range(a + 1))


@dataclass(frozen=True)
class RuledSurfaceModel:
    """A scroll divisor C_0 + bf on a ruled surface of genus 0 or 1."""

    genus: int
    e: int
    divisor_degree: int
    decomposable: bool = True
    e_divisor_trivial: bool = False

    def __post_init__(self) -> None:
        if self.genus not in (0, 1):
            raise ValueError("models cover base genus 0 and 1 only")
        if self.genus == 0:
            if not self.decomposable:
                raise ValueError("every rank-2 bundle on a rational curve splits")
            if self.e < 0:
                raise ValueError("rational ruled surfaces have e >= 0")
        elif self.decomposable:
            if self.e < 0:
                raise ValueError("decomposable elliptic bundles have e >= 0")
        elif self.e not in (-1, 0):
            raise ValueError("indecomposable elliptic bundles have e in {-1, 0}")
        if self.e_divisor_trivial and not (self.genus == 1 and self.e == 0):
            raise ValueError("the trivial-divisor flag applies to genus 1, e = 0 only")

    @property
    def m(self) -> int:
        return self.divisor_degree

    @property
    def kind(self) -> str:
        return "decomposable" if self.decomposable else "indecomposable"

    @property
    def base_genus(self) -> int:
        return self.genus

    @property
    def is_e_trivial(self) -> bool:
        # a degree-0 divisor on a rational curve is automatically trivial
        if self.genus == 0:
            return self.e == 0
        return self.e_divisor_trivial

    def describe(self) -> str:
        """The normalized bundle, as the classification tables print it."""
        if not self.decomposable:
            return "Ext^1(O_C(P), O_C)" if self.e == -1 else "nonsplit, e = 0"
        if self.genus == 0:
            return "O + O" if self.e == 0 else f"O + O(-{self.e})"
        if self.e == 0:
            return "O_C + O_C" if self.e_divisor_trivial else "O_C + O_C(e), e !~ 0"
        if 1 <= self.e <= 3:
            return "O_C + O_C(" + "".join(f"-{p}" for p in "PQR"[: self.e]) + ")"
        return f"O_C + O_C(e), deg e = -{self.e}"


def model_for(
    b: IncidenceBase, genus: int, e: int, m: int, decomposable: bool
) -> RuledSurfaceModel | None:
    """The model of the scroll swept by the valid base b, None above genus 1.

    The normalizing divisor's triviality is decidable without coordinates
    only for genus 1, e = 0, where the trivial-divisor scroll has the unique
    base {3 P^3, 2 P^5} in P^7.
    """
    if genus > 1:
        return None
    if genus == 0 and not decomposable:
        raise InternalConsistencyError(f"{b}: rational scroll classified as indecomposable")
    trivial = genus == 1 and e == 0 and decomposable and b == _TRIVIAL_DIVISOR_BASE
    return RuledSurfaceModel(genus, e, m, decomposable, trivial)


def very_ample(model: RuledSurfaceModel) -> bool:
    """Whether C_0 + bf embeds the surface as a scroll: m > e in genus 0,
    m >= e + 3 in genus 1."""
    if model.genus == 0:
        return model.m > model.e
    return model.m >= model.e + 3


def _require_very_ample(model: RuledSurfaceModel) -> None:
    if not very_ample(model):
        raise ValueError(f"divisor with m = {model.m}, e = {model.e} is not very ample")


def embedding_invariants(model: RuledSurfaceModel) -> tuple[int, int]:
    """(degree, ambient dimension) of the embedded scroll, nonspecial range."""
    _require_very_ample(model)
    d = 2 * model.m - model.e
    n = 2 * (model.m - model.genus) - model.e + 1
    return d, n


def _cor_equality_rational(e: int, m: int) -> bool:
    # section-count criterion for e >= 1: the spaces spanned by the two
    # directrix families must impose exactly 2n - 3 conditions
    lhs = m * h0_rational(1, 0, e) + (m - e) * h0_rational(1, e, e)
    return lhs == 2 * (2 * m - e + 1) - 3


def incidence_clause(model: RuledSurfaceModel) -> str | None:
    """Which clause of the classification admits this model, or None.

    The clause labels partition the classified range, so a model matches at
    most one.
    """
    g, e, m = model.genus, model.e, model.m
    if g == 0:
        if e == 0:
            return "rational general type, e = 0"
        if e == 1:
            return "rational general type, e = 1"
        if m == e + 1:
            return "rational with a directrix line"
        return None
    if not model.decomposable:
        if e == -1 and m == 2:
            return "elliptic indecomposable, e = -1"
        return None
    if e == 0 and model.is_e_trivial:
        return "elliptic decomposable, trivial divisor" if m == 4 else None
    if 0 <= e <= 3 and m == e + 3:
        return "elliptic decomposable, 0 <= e <= 3"
    return None


def is_incidence(model: RuledSurfaceModel) -> bool:
    """Whether the embedded scroll is swept by the lines meeting some base
    in general position.

    For rational models with e >= 1 the answer is cross-checked against the
    independent section-count criterion; a disagreement would be a bug, not
    a property of the surface.
    """
    _require_very_ample(model)
    answer = incidence_clause(model) is not None
    if model.genus == 0 and model.e >= 1:
        if answer != _cor_equality_rational(model.e, model.m):
            raise InternalConsistencyError(
                f"incidence clauses and section counts disagree at (e, m) = "
                f"({model.e}, {model.m})"
            )
    return answer


def predicted_base(model: RuledSurfaceModel) -> IncidenceBase:
    """The base sweeping this scroll (normalized), for models passing
    is_incidence."""
    if not is_incidence(model):
        raise ValueError(f"{model} is not an incidence scroll")
    g, e, m = model.genus, model.e, model.m
    if g == 0:
        if e >= 2:
            # m = e + 1: rational normal scroll with a directrix line
            n = 2 * m - e + 1
            raw = IncidenceBase(n, (1,) + (n - 2,) * (n - 1))
        elif e == 0:
            raw = IncidenceBase(2 * m + 1, (m, m, m, m + 1))
        else:
            raw = IncidenceBase(2 * m, (m - 1, m, m, m))
    elif not model.decomposable:
        raw = IncidenceBase(4, (2, 2, 2, 2, 2))
    elif model.is_e_trivial:
        raw = _TRIVIAL_DIVISOR_BASE
    else:
        dims = (2,) + (e + 2,) * (e + 1) + (e + 3,) * (3 - e)
        raw = IncidenceBase(2 * m - e - 1, dims)
    return normalize(raw)


def base_structure_constraints(model: RuledSurfaceModel) -> list[tuple[int, int]]:
    """Base spaces forced by the directrix families: (dimension, minimum
    count) pairs.

    The spans of the two disjoint directrix curves, of dimensions m - e - g
    and m - g, must be base spaces; when the divisor class is trivial a
    one-dimensional family supplies three spaces of the smaller dimension,
    and otherwise the m - g spaces number e + 2 - g whenever that many fit
    within the condition budget.
    """
    if not model.decomposable:
        raise ValueError("structure constraints apply to decomposable models")
    g, e, m = model.genus, model.e, model.m
    if model.is_e_trivial:
        return [(m - e - g, 3)]
    reqs: dict[int, int] = {}
    for dim in (m - e - g, m - g):
        reqs[dim] = reqs.get(dim, 0) + 1
    family = e + 2 - g
    if m - g + family * (m - e - g) <= 4 * m - 2 * e - 4 * g - 1:
        reqs[m - g] = max(reqs[m - g], family)
    return sorted(reqs.items())


def min_directrix_count(model: RuledSurfaceModel) -> int | None:
    """Number of minimum-degree directrix curves; None for a one-dimensional
    family."""
    if model.genus == 0:
        return None if h0_rational(1, 0, model.e) >= 2 else 1
    if not model.decomposable:
        # e = -1: the unisecant curves form a family parametrized by the base
        return None
    if model.e == 0:
        return None if model.is_e_trivial else 2
    return 1
