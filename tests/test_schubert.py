"""Pieri arithmetic in G(1, n) against hand-checked and oracle-checked values."""

import pytest

from incidence_scrolls.schubert import (
    DimensionMismatchError,
    _degree_genus,
    _pieri_step,
    intersection_number,
    oracle_intersection_number,
)

CATALAN = {3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429}


def test_pieri_point_class_of_quadric():
    # four sigma_1 factors in G(1, 3) land on twice the point class (2, 2)
    vec, t = [1], 0
    for _ in range(4):
        vec, t = _pieri_step(vec, t, 3, 1), t + 1
    assert vec == [0, 0, 2]


def test_pieri_on_column_pair():
    # the only legal strip on top of the column pair sigma_(1, 1) extends the
    # first row, so the product dies exactly when that row leaves the box
    assert _pieri_step([0, 1], 2, 3, 2) == [0, 0, 0]
    assert _pieri_step([0, 1], 2, 4, 2) == [0, 1, 0]  # sigma_(3, 1)


def test_pieri_strip_enumeration():
    # sigma_(2, 0) * sigma_2 in G(1, 5) = sigma_(4, 0) + sigma_(3, 1) + sigma_(2, 2)
    assert _pieri_step([1, 0], 2, 5, 2) == [1, 1, 1]


def test_four_middle_classes():
    # lines meeting four general m-planes in P^(2m+1)
    for m in range(1, 11):
        assert intersection_number(2 * m + 1, [m] * 4) == m + 1


@pytest.mark.parametrize("n,expected", sorted(CATALAN.items()))
def test_catalan_powers(n, expected):
    assert intersection_number(n, [1] * (2 * n - 2)) == expected
    assert oracle_intersection_number(n, [1] * (2 * n - 2)) == expected


@pytest.mark.parametrize(
    "n,codims,expected",
    [
        (4, [1, 1, 1, 1, 1, 1], 5),
        (5, [2, 2, 1, 1, 1, 1], 6),
        (3, [1, 1, 1, 1], 2),
        (4, [2, 2, 1, 1], 2),
        (3, [2, 2], 1),
        (4, [2, 1, 1, 1, 1], 3),
    ],
)
def test_frozen_values_both_routes(n, codims, expected):
    assert intersection_number(n, codims) == expected
    assert oracle_intersection_number(n, codims) == expected


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        intersection_number(4, [1, 1, 1])
    with pytest.raises(DimensionMismatchError):
        oracle_intersection_number(4, [1, 1, 1])
    with pytest.raises(ValueError):
        intersection_number(4, [4, 1, 1])


def test_order_independence():
    codims = [3, 1, 2, 2, 1, 1, 2]
    n = 7
    assert sum(codims) == 2 * n - 2
    want = intersection_number(n, codims)
    assert intersection_number(n, sorted(codims)) == want
    assert intersection_number(n, sorted(codims, reverse=True)) == want
    assert intersection_number(n, [1, 2, 3, 1, 2, 2, 1]) == want


def test_point_condition_duality():
    # one factor equal to n - 1 restricts to a point of the projection
    assert intersection_number(4, [3, 3]) == 1
    assert intersection_number(5, [4, 4]) == 1
    assert intersection_number(6, [5, 2, 2, 1]) == 1
    assert intersection_number(7, [6, 3, 2, 1]) == 1


def test_zero_codimension_factors_are_identity():
    assert intersection_number(3, [1, 1, 1, 1, 0, 0]) == 2


def test_k_pass_answers_the_chain_far_past_the_recursion():
    # n:1,(n-2)x(n-1) sweeps a rational normal scroll of degree n - 1 with a
    # directrix line; the degeneration recursion on it stops near n = 495
    n = 1200
    assert _degree_genus(n, (1,) + (n - 2,) * (n - 1)) == (n - 1, 0, 1)


def test_k_pass_reads_elliptic_and_special_genera():
    assert _degree_genus(4, (2, 2, 2, 2, 2)) == (5, 1, 3)
    assert _degree_genus(5, (2, 3, 3, 3, 3, 3)) == (9, 3, 4)  # special, i = 1
    assert _degree_genus(2, (0,)) == (1, 0, 0)  # the lines of P^2 through a point
