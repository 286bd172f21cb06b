"""Base validation, normalization, and scroll invariants."""

import pytest

from incidence_scrolls.base import (
    BaseValidationError,
    IncidenceBase,
    SpecialityError,
    UnrealizableBaseError,
    degree,
    directrix_degree,
    formula_genus,
    min_directrix_degree,
    normalize,
    validate,
)
from incidence_scrolls.degeneration import verified_invariants


def B(n, *dims):
    return IncidenceBase(n, tuple(dims))


def test_dims_are_sorted_and_bounded():
    b = B(5, 3, 1, 2)
    assert b.dims == (1, 2, 3)
    with pytest.raises(ValueError):
        B(4, 4)
    with pytest.raises(ValueError):
        B(4, -1)
    with pytest.raises(ValueError):
        IncidenceBase(1, ())


def test_validate_quintic_base():
    report = validate(B(4, 2, 2, 2, 2, 2))
    assert report.all_ok
    assert report.conditions == report.required == 5


def test_validate_undercounts_conditions():
    report = validate(B(4, 2, 2))
    assert not report.incidence_condition
    assert report.conditions == 2
    assert report.no_hyperplanes and report.nondegenerate


def test_validate_degenerate_pair_and_condition_excess():
    report = validate(B(4, 1, 1, 2, 2))
    assert not report.incidence_condition  # 6 conditions, needs 5
    assert report.degenerate_pairs == ((1, 1),)
    assert not report.all_ok


def test_validate_flags_hyperplanes():
    report = validate(B(6, 3, 3, 3, 4, 5))
    assert report.hyperplanes == (5,)


def test_normalize_drops_hyperplane_only():
    assert normalize(B(6, 3, 3, 3, 4, 5)) == B(6, 3, 3, 3, 4)


def test_normalize_contracts_degenerate_pair():
    assert normalize(B(6, 2, 2, 3, 4, 5)) == B(5, 2, 2, 2, 3)


def test_normalize_fixed_point_on_valid_base():
    b = B(4, 1, 2, 2, 2)
    assert normalize(b) == b


def test_normalize_idempotent_and_preserves_condition_defect():
    cases = [B(6, 3, 3, 3, 4, 5), B(6, 2, 2, 3, 4, 5), B(6, 1, 1, 4, 4), B(5, 1, 2, 3, 4)]
    for b in cases:
        reduced = normalize(b)
        assert normalize(reduced) == reduced
        defect = b.condition_count() - (2 * b.ambient - 3)
        assert reduced.condition_count() - (2 * reduced.ambient - 3) == defect


def test_normalize_unrealizable():
    with pytest.raises(UnrealizableBaseError):
        normalize(B(5, 0, 1, 3, 3))


@pytest.mark.parametrize(
    "n,dims,expected",
    [
        (3, (1, 1, 1), 2),
        (4, (2, 2, 2, 2, 2), 5),
        (5, (2, 2, 3, 3, 3), 6),
        (4, (1, 2, 2, 2), 3),
        (8, (2, 5, 5, 5, 5), 9),
    ],
)
def test_degree(n, dims, expected):
    assert degree(IncidenceBase(n, dims)) == expected


def test_degree_requires_valid_base():
    with pytest.raises(BaseValidationError):
        degree(B(4, 2, 2))


@pytest.mark.parametrize(
    "n,dims,k,expected",
    [
        (5, (2, 2, 2, 3), 3, 3),  # the P^3 of the middle scroll: z(2) = 3
        (5, (2, 2, 2, 3), 0, 2),
        (3, (1, 1, 1), 0, 1),
        (4, (2, 2, 2, 2, 2), 0, 3),
        (7, (3, 3, 3, 5, 5), 0, 4),
    ],
)
def test_directrix_degree(n, dims, k, expected):
    assert directrix_degree(IncidenceBase(n, dims), k) == expected


def test_directrix_degree_middle_family_law():
    # on {3 P^m, P^(m+1)} the big space carries a directrix of degree m + 1
    for m in range(2, 7):
        b = IncidenceBase(2 * m + 1, (m, m, m, m + 1))
        assert directrix_degree(b, 3) == m + 1
        assert directrix_degree(b, 0) == m


def test_degree_splits_along_disjoint_smallest_pair():
    # smallest spaces disjoint: degree is the sum of their directrix degrees
    for b in [B(3, 1, 1, 1), B(4, 1, 2, 2, 2), B(5, 2, 2, 3, 3, 3), B(6, 2, 3, 3, 4, 4),
              B(7, 3, 3, 3, 5, 5), B(8, 3, 4, 4, 4)]:
        assert b.dims[0] + b.dims[1] == b.ambient - 1
        assert degree(b) == directrix_degree(b, 0) + directrix_degree(b, 1)


def test_degree_overcounts_one_for_meeting_pair():
    # smallest spaces meeting in a point: the common generator is counted twice
    for b in [B(4, 2, 2, 2, 2, 2), B(5, 2, 3, 3, 3, 3, 3)]:
        assert b.dims[0] + b.dims[1] == b.ambient
        assert degree(b) == directrix_degree(b, 0) + directrix_degree(b, 1) - 1


def test_invariants_elliptic_septic():
    inv = verified_invariants(B(6, 2, 3, 3, 4, 4))
    assert (inv.degree, inv.genus, inv.e, inv.divisor_degree) == (7, 1, 1, 4)
    assert inv.min_directrix_degree == 3
    assert inv.decomposable
    assert inv.bundle is not None and inv.bundle.kind == "decomposable"


def test_invariants_elliptic_quintic():
    inv = verified_invariants(B(4, 2, 2, 2, 2, 2))
    assert (inv.degree, inv.genus, inv.e, inv.divisor_degree) == (5, 1, -1, 2)
    assert not inv.decomposable
    assert inv.bundle.kind == "indecomposable"


def test_invariants_genus_two():
    inv = verified_invariants(B(7, 3, 3, 4, 4, 5))
    assert (inv.degree, inv.genus) == (10, 2)
    assert inv.bundle is None


def test_invariants_trivial_divisor_detection():
    inv = verified_invariants(B(7, 3, 3, 3, 5, 5))
    assert inv.bundle.e_divisor_trivial
    other = verified_invariants(B(5, 2, 2, 3, 3, 3))
    assert other.e == 0 and not other.bundle.e_divisor_trivial


def test_special_base_is_rejected_by_formula_route():
    b = B(5, 2, 3, 3, 3, 3, 3)
    assert degree(b) == 9  # degree + 1 - n is odd: no nonspecial genus exists
    with pytest.raises(SpecialityError):
        formula_genus(b)


def test_plane_base_edge_case():
    b = B(2, 0)
    assert validate(b).all_ok
    assert degree(b) == 1
    assert min_directrix_degree(b) == 0
    assert formula_genus(b) == 0
