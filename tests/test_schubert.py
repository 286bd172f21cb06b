"""Pieri arithmetic in G(1, n) against hand-checked and oracle-checked values."""

import pytest

from incidence_scrolls.schubert import (
    CycleSum,
    DimensionMismatchError,
    SchubertClass,
    intersection_number,
    oracle_intersection_number,
    pieri_multiply,
)

CATALAN = {3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429}


def test_class_invariants():
    assert SchubertClass(3, 1).codim == 4
    assert SchubertClass(2, 0).fits(3)
    assert not SchubertClass(3, 0).fits(3)
    with pytest.raises(ValueError):
        SchubertClass(1, 2)
    with pytest.raises(ValueError):
        SchubertClass(1, -1)


def test_cycle_sum_validation():
    with pytest.raises(ValueError):
        CycleSum(3, {SchubertClass(3, 0): 1})  # outside the box
    with pytest.raises(ValueError):
        CycleSum(3, {SchubertClass(1, 0): 0})  # zero coefficient
    with pytest.raises(ValueError):
        CycleSum(4, {SchubertClass(1, 0): 1, SchubertClass(1, 1): 1})  # mixed codim
    assert CycleSum.unit(5).coefficient(0, 0) == 1


def test_pieri_point_class_of_quadric():
    s = CycleSum.unit(3)
    for _ in range(4):
        s = pieri_multiply(s, 1)
    assert s.terms == {SchubertClass(2, 2): 2}


def test_pieri_on_column_pair():
    # the only legal strip on top of a column pair extends the first row,
    # so the product dies exactly when that row leaves the box
    s3 = CycleSum(3, {SchubertClass(1, 1): 1})
    assert pieri_multiply(s3, 2).is_zero()
    s4 = CycleSum(4, {SchubertClass(1, 1): 1})
    assert pieri_multiply(s4, 2).terms == {SchubertClass(3, 1): 1}


def test_pieri_strip_enumeration():
    s = CycleSum(5, {SchubertClass(2, 0): 1})
    out = pieri_multiply(s, 2)
    assert out.terms == {
        SchubertClass(4, 0): 1,
        SchubertClass(3, 1): 1,
        SchubertClass(2, 2): 1,
    }


def test_pieri_rejects_out_of_range_class():
    with pytest.raises(ValueError):
        pieri_multiply(CycleSum.unit(4), 4)
    with pytest.raises(ValueError):
        pieri_multiply(CycleSum.unit(4), -1)


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
