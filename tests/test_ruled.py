"""Ruled-surface section counts and incidence predicates."""

import pytest

from incidence_scrolls.base import _bundle_dict, validate
from incidence_scrolls.classify import base_candidates
from incidence_scrolls.degeneration import verified_invariants
from incidence_scrolls.ruled import (
    RuledSurfaceModel,
    base_structure_constraints,
    embedding_invariants,
    h0_elliptic_decomposable,
    h0_rational,
    is_incidence,
    min_directrix_count,
    predicted_base,
    very_ample,
)


@pytest.mark.parametrize(
    "a,m,e,expected",
    [
        (1, 0, 2, 1),
        (1, 2, 2, 4),
        (0, 3, 5, 4),
        (1, 4, 0, 10),
        (1, 3, 1, 7),
    ],
)
def test_h0_rational(a, m, e, expected):
    assert h0_rational(a, m, e) == expected


def test_h0_rational_e_zero_linear_growth():
    for m in range(0, 8):
        assert h0_rational(1, m, 0) == 2 * (m + 1)


def test_h0_elliptic():
    # class of degree e plus a trivial degree-0 part: e + 1 sections
    for e in range(1, 5):
        assert h0_elliptic_decomposable(e, e, e_trivial=True) == e + 1
    assert h0_elliptic_decomposable(4, 0, e_trivial=True) == 8
    assert h0_elliptic_decomposable(0, 0, e_trivial=False) == 1
    assert h0_elliptic_decomposable(0, 0, e_trivial=True) == 2
    assert h0_elliptic_decomposable(3, 0, e_trivial=False) == 6


def test_model_validation():
    with pytest.raises(ValueError):
        RuledSurfaceModel(genus=0, e=-1, divisor_degree=2)
    with pytest.raises(ValueError):
        RuledSurfaceModel(genus=0, e=1, divisor_degree=2, decomposable=False)
    with pytest.raises(ValueError):
        RuledSurfaceModel(genus=1, e=2, divisor_degree=5, decomposable=False)
    with pytest.raises(ValueError):
        RuledSurfaceModel(genus=1, e=1, divisor_degree=4, e_divisor_trivial=True)


@pytest.mark.parametrize(
    "g,e,m,kwargs,expected",
    [
        (0, 0, 1, {}, "O + O"),
        (0, 2, 3, {}, "O + O(-2)"),
        (1, -1, 2, {"decomposable": False}, "Ext^1(O_C(P), O_C)"),
        (1, 0, 3, {"decomposable": False}, "nonsplit, e = 0"),
        (1, 0, 4, {"e_divisor_trivial": True}, "O_C + O_C"),
        (1, 0, 3, {}, "O_C + O_C(e), e !~ 0"),
        (1, 1, 4, {}, "O_C + O_C(-P)"),
        (1, 2, 5, {}, "O_C + O_C(-P-Q)"),
        (1, 3, 6, {}, "O_C + O_C(-P-Q-R)"),
        (1, 5, 8, {}, "O_C + O_C(e), deg e = -5"),
    ],
)
def test_describe(g, e, m, kwargs, expected):
    assert RuledSurfaceModel(g, e, m, **kwargs).describe() == expected


def test_kind_and_base_genus():
    assert RuledSurfaceModel(0, 1, 3).kind == "decomposable"
    assert RuledSurfaceModel(1, -1, 2, decomposable=False).kind == "indecomposable"
    assert RuledSurfaceModel(1, 0, 3).base_genus == 1


def test_invariants_carry_their_model():
    # the bundle is the model itself, and the JSON flag is the field: the
    # property is_e_trivial holds for every rational e = 0 model
    rows = 0
    for n in range(3, 11):
        for b in base_candidates(n):
            inv = verified_invariants(b)
            if inv.genus > 1:
                assert inv.bundle is None
                continue
            rows += 1
            model = inv.bundle
            assert isinstance(model, RuledSurfaceModel)
            assert (model.genus, model.e, model.m, model.decomposable) == (
                inv.genus,
                inv.e,
                inv.divisor_degree,
                inv.decomposable,
            )
            if inv.genus == 0:
                assert _bundle_dict(model)["e_trivial"] is False
    assert rows > 0


@pytest.mark.parametrize(
    "g,e,m,expected",
    [
        (0, 2, 4, True),
        (1, 1, 3, False),
        (0, 3, 3, False),
        (1, -1, 2, True),
        (1, 0, 3, True),
    ],
)
def test_very_ample(g, e, m, expected):
    model = RuledSurfaceModel(genus=g, e=e, divisor_degree=m, decomposable=(g == 0 or e >= 0))
    assert very_ample(model) is expected


@pytest.mark.parametrize(
    "g,e,m,decomposable,expected",
    [
        (1, -1, 2, False, (5, 4)),
        (0, 1, 4, True, (7, 8)),
        (0, 0, 1, True, (2, 3)),
    ],
)
def test_embedding_invariants(g, e, m, decomposable, expected):
    model = RuledSurfaceModel(genus=g, e=e, divisor_degree=m, decomposable=decomposable)
    assert embedding_invariants(model) == expected


def test_non_incidence_counterexample():
    model = RuledSurfaceModel(genus=0, e=2, divisor_degree=4)
    conditions = 4 * h0_rational(1, 0, 2) + 2 * h0_rational(1, 2, 2)
    assert conditions == 12
    assert 2 * (2 * 4 - 2 + 1) - 3 == 11
    assert not is_incidence(model)


def test_incidence_rational_families():
    # e <= 1 always; e >= 2 exactly on the minimal very-ample divisor
    for e in range(0, 7):
        for m in range(e + 1, e + 8):
            model = RuledSurfaceModel(genus=0, e=e, divisor_degree=m)
            expected = e <= 1 or m == e + 1
            assert is_incidence(model) is expected


def test_incidence_elliptic_families():
    assert is_incidence(RuledSurfaceModel(1, -1, 2, decomposable=False))
    assert not is_incidence(RuledSurfaceModel(1, -1, 3, decomposable=False))
    assert is_incidence(RuledSurfaceModel(1, 0, 4, e_divisor_trivial=True))
    assert not is_incidence(RuledSurfaceModel(1, 0, 5, e_divisor_trivial=True))
    assert is_incidence(RuledSurfaceModel(1, 3, 6))
    assert not is_incidence(RuledSurfaceModel(1, 4, 7))
    # no indecomposable e = 0 incidence scrolls, whatever the divisor
    for m in range(3, 9):
        assert not is_incidence(RuledSurfaceModel(1, 0, m, decomposable=False))


@pytest.mark.parametrize(
    "g,e,m,kwargs,expected",
    [
        (0, 3, 4, {}, (6, (1, 4, 4, 4, 4, 4))),
        (0, 4, 5, {}, (7, (1, 5, 5, 5, 5, 5, 5))),
        (1, 1, 4, {}, (6, (2, 3, 3, 4, 4))),
        (1, 0, 4, {"e_divisor_trivial": True}, (7, (3, 3, 3, 5, 5))),
        (1, -1, 2, {"decomposable": False}, (4, (2, 2, 2, 2, 2))),
        (0, 0, 1, {}, (3, (1, 1, 1))),
        (0, 0, 2, {}, (5, (2, 2, 2, 3))),
        (0, 1, 3, {}, (6, (2, 3, 3, 3))),
    ],
)
def test_predicted_base(g, e, m, kwargs, expected):
    model = RuledSurfaceModel(genus=g, e=e, divisor_degree=m, **kwargs)
    b = predicted_base(model)
    assert (b.ambient, b.dims) == expected
    assert validate(b).all_ok


def test_predicted_base_reproduces_model():
    models = [
        RuledSurfaceModel(0, 0, 3),
        RuledSurfaceModel(0, 1, 4),
        RuledSurfaceModel(0, 5, 6),
        RuledSurfaceModel(1, 2, 5),
        RuledSurfaceModel(1, 0, 3),
        RuledSurfaceModel(1, 0, 4, e_divisor_trivial=True),
        RuledSurfaceModel(1, -1, 2, decomposable=False),
    ]
    for model in models:
        inv = verified_invariants(predicted_base(model))
        assert (inv.genus, inv.e, inv.divisor_degree) == (
            model.genus,
            model.e,
            model.m,
        )
        assert inv.degree == 2 * model.m - model.e
        assert inv.bundle == model


@pytest.mark.parametrize(
    "g,e,m,kwargs,expected",
    [
        (1, 1, 4, {}, [(2, 1), (3, 2)]),
        (0, 1, 3, {}, [(2, 1), (3, 3)]),
        (1, 0, 4, {"e_divisor_trivial": True}, [(3, 3)]),
        (1, 0, 3, {}, [(2, 2)]),
        (0, 0, 2, {}, [(2, 3)]),
        (0, 3, 4, {}, [(1, 1), (4, 5)]),
    ],
)
def test_base_structure_constraints(g, e, m, kwargs, expected):
    model = RuledSurfaceModel(genus=g, e=e, divisor_degree=m, **kwargs)
    assert base_structure_constraints(model) == expected


def test_predicted_base_satisfies_structure_constraints():
    models = [
        RuledSurfaceModel(0, 0, 2),
        RuledSurfaceModel(0, 1, 3),
        RuledSurfaceModel(0, 2, 3),
        RuledSurfaceModel(1, 0, 3),
        RuledSurfaceModel(1, 1, 4),
        RuledSurfaceModel(1, 3, 6),
        RuledSurfaceModel(1, 0, 4, e_divisor_trivial=True),
    ]
    for model in models:
        b = predicted_base(model)
        counts: dict[int, int] = {}
        for d in b.dims:
            counts[d] = counts.get(d, 0) + 1
        for dim, need in base_structure_constraints(model):
            assert counts.get(dim, 0) >= need, (model, dim, need, b)


def test_min_directrix_count():
    assert min_directrix_count(RuledSurfaceModel(0, 0, 3)) is None
    assert min_directrix_count(RuledSurfaceModel(0, 2, 3)) == 1
    assert min_directrix_count(RuledSurfaceModel(1, -1, 2, decomposable=False)) is None
    assert min_directrix_count(RuledSurfaceModel(1, 0, 3)) == 2
    assert min_directrix_count(RuledSurfaceModel(1, 0, 4, e_divisor_trivial=True)) is None
    assert min_directrix_count(RuledSurfaceModel(1, 2, 5)) == 1
