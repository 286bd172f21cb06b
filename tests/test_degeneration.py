"""Join/separate calculus and the genus recursion."""

import itertools

import pytest

from incidence_scrolls.base import IncidenceBase, degree, formula_genus, normalize
from incidence_scrolls.classify import base_candidates
from incidence_scrolls.degeneration import (
    genus_by_degeneration,
    join,
    separate,
    speciality,
    verified_invariants,
)


def B(n, *dims):
    return IncidenceBase(n, tuple(dims))


def test_join_elliptic_quintic():
    split = join(B(4, 2, 2, 2, 2, 2), 0, 1)
    assert split.g1 + split.g2 + split.kappa - 1 == 1
    assert split.m == 1
    assert normalize(split.beta_dot) == B(4, 1, 2, 2, 2)
    assert normalize(split.beta_ddot) == B(3, 1, 1, 1)
    assert (split.d1, split.g1, split.d2, split.g2) == (3, 0, 2, 0)
    assert split.kappa == 2


def test_join_common_generator_count():
    split = join(B(5, 2, 2, 3, 3, 3), 2, 3)
    assert split.m == 2
    assert split.kappa == 2


def test_join_with_empty_meet_gives_plane():
    split = join(B(4, 1, 2, 2, 2), 0, 1)
    assert split.g1 + split.g2 + split.kappa - 1 == 0
    assert split.m == 0
    assert (split.d1, split.g1) == (1, 0)
    assert normalize(split.beta_ddot) == B(3, 1, 1, 1)
    assert (split.d2, split.g2) == (2, 0)
    assert split.kappa == 1


def test_join_rejects_bad_indices():
    with pytest.raises(ValueError):
        join(B(3, 1, 1, 1), 0, 0)
    with pytest.raises(ValueError):
        join(B(3, 1, 1, 1), 0, 5)


def test_empty_meet_always_shares_one_generator():
    for b in [B(4, 1, 2, 2, 2), B(5, 2, 2, 2, 3), B(6, 2, 3, 3, 3), B(5, 2, 2, 3, 3, 3)]:
        for i, j in itertools.combinations(range(b.r), 2):
            if b.dims[i] + b.dims[j] == b.ambient - 1:
                split = join(b, i, j)
                assert split.m == 0 and split.kappa == 1


def test_residual_directrix_degrees_drop_by_one():
    # after an empty-meet join, the directrix on each shrunk space loses a line
    from incidence_scrolls.base import directrix_degree

    b = B(6, 2, 3, 3, 3)
    split = join(b, 0, 1)
    assert split.m == 0
    residual = normalize(split.beta_ddot)
    assert residual == B(5, 2, 2, 2, 3)
    # the two untouched P^3's of b shrink to the P^2's carrying index 1, 2
    assert directrix_degree(b, 2) == 3
    assert directrix_degree(residual, 1) == 2


def test_separate_line_and_hyperplane():
    assert separate(B(3, 1, 1, 1), 0, add_hyperplane=True) == B(4, 1, 2, 2, 2)
    for n in range(3, 9):
        b = IncidenceBase(n, (1,) + (n - 2,) * (n - 1))
        out = separate(b, 0, add_hyperplane=True)
        assert out == IncidenceBase(n + 1, (1,) + (n - 1,) * n)


def test_separate_roundtrip():
    b = B(4, 1, 2, 2, 2)
    out = separate(b, 1, 2)
    assert out == B(5, 2, 2, 2, 3)
    assert degree(out) == degree(b) + 1
    assert genus_by_degeneration(out) == genus_by_degeneration(b)
    split = join(out, 0, 1)  # the separated (2, 2) pair
    assert (split.m, split.kappa) == (0, 1)
    assert normalize(split.beta_ddot) == b


def test_separate_requires_point_meeting_pair():
    with pytest.raises(ValueError):
        separate(B(4, 1, 2, 2, 2), 0, 1)  # 1 + 2 != 4
    with pytest.raises(ValueError):
        separate(B(4, 1, 2, 2, 2), 0)  # no second index


@pytest.mark.parametrize(
    "n,dims,expected",
    [
        (4, (2, 2, 2, 2, 2), 1),
        (7, (3, 3, 4, 4, 5), 2),
        (3, (1, 1, 1), 0),
        (5, (1, 3, 3, 3, 3), 0),
        (8, (2, 5, 5, 5, 5), 1),
    ],
)
def test_genus_by_degeneration(n, dims, expected):
    assert genus_by_degeneration(IncidenceBase(n, dims)) == expected


def test_genus_matches_linear_section_arithmetic():
    # bases made of (2n-3) spaces of dimension n-2 cut the Grassmannian by
    # hyperplanes; degree and sectional genus are then forced by adjunction
    from math import comb

    for n in range(3, 8):
        b = IncidenceBase(n, ((n - 2),) * (2 * n - 3))
        catalan = comb(2 * (n - 1), n - 1) // n
        assert degree(b) == catalan
        assert genus_by_degeneration(b) == 1 + (n - 4) * catalan // 2


def test_genus_pair_choice_invariance_small():
    for n in range(3, 7):
        for b in base_candidates(n):
            g = genus_by_degeneration(b)
            for i, j in itertools.combinations(range(b.r), 2):
                split = join(b, i, j)
                assert split.g1 + split.g2 + split.kappa - 1 == g


def test_speciality_values():
    assert speciality(B(4, 2, 2, 2, 2, 2)) == 0
    assert speciality(B(5, 2, 3, 3, 3, 3, 3)) == 1
    assert speciality(B(5, 3, 3, 3, 3, 3, 3, 3)) == 6


def test_verified_invariants_agree_with_formula_when_nonspecial():
    nonspecial = []
    for n in range(3, 9):
        for b in base_candidates(n):
            vi = verified_invariants(b)
            if vi.speciality == 0:
                assert vi.genus == formula_genus(b)
                nonspecial.append(b)
    for b in [B(4, 2, 2, 2, 2, 2), B(6, 2, 3, 3, 4, 4), B(7, 3, 3, 4, 4, 5)]:
        assert b in nonspecial


def test_verified_invariants_report_special_scrolls():
    vi = verified_invariants(B(5, 2, 3, 3, 3, 3, 3))
    assert (vi.degree, vi.genus, vi.speciality) == (9, 3, 1)
    assert vi.bundle is None
