"""Validation happens once, at the public functions of base and degeneration.

Every public entry point that needs a valid base must reject an invalid one
with BaseValidationError and the validation summary; the _-prefixed helpers
behind them take trusted (n, dims) tuples and never validate again.
"""

import pytest

from incidence_scrolls import base, classify, degeneration, ruled, schubert
from incidence_scrolls.base import (
    BaseValidationError,
    IncidenceBase,
    degree,
    directrix_degree,
    min_directrix_degree,
)
from incidence_scrolls.degeneration import (
    genus_by_degeneration,
    join,
    separate,
    speciality,
    verified_invariants,
)

INVALID = {
    "4:2,2,2,2,2,3": "4:2,2,2,2,2,3: contains hyperplanes of dimension [3]",
    "5:1,2,2": "5:1,2,2: degenerate pairs (1, 2)",
    "4:2,2,2,2": "4:2,2,2,2: imposes 4 conditions, needs 5",
}

ENTRY_POINTS = {
    "degree": degree,
    "directrix_degree": lambda b: directrix_degree(b, 0),
    "min_directrix_degree": min_directrix_degree,
    "genus_by_degeneration": genus_by_degeneration,
    "join": lambda b: join(b, 0, 1),
    "separate": lambda b: separate(b, 0, 1),
    "speciality": speciality,
    "verified_invariants": verified_invariants,
}


def parse(text):
    n, _, dims = text.partition(":")
    return IncidenceBase(int(n), tuple(int(d) for d in dims.split(",")))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("text", sorted(INVALID))
def test_entry_point_rejects_invalid_base(name, text):
    with pytest.raises(BaseValidationError) as info:
        ENTRY_POINTS[name](parse(text))
    assert str(info.value) == INVALID[text]


@pytest.mark.parametrize("k", [-1, 5])
def test_directrix_degree_rejects_index_out_of_range(k):
    with pytest.raises(ValueError, match=f"base space index {k} out of range") as info:
        directrix_degree(parse("4:2,2,2,2,2"), k)
    assert not isinstance(info.value, BaseValidationError)


def clear_package_caches():
    for mod in (schubert, base, degeneration, ruled, classify):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                obj.cache_clear()


# A cold enumeration for n = 3..10 has 495 distinct sorted codimension
# tuples, a bound on the kernel memo; the walk reads everything off its K
# pass, so the memo in fact stays empty, as the no-recursion test checks.
KERNEL_ENTRIES_UP_TO_10 = 495


def test_cold_enumeration_makes_no_validate_call(monkeypatch):
    # the walk builds only valid bases (test_candidates_all_valid_and_sorted
    # checks every one of them), so none is validated again
    calls = []
    real_validate = base.validate

    def counting_validate(b):
        calls.append(b)
        return real_validate(b)

    clear_package_caches()
    monkeypatch.setattr(base, "validate", counting_validate)
    bases = [b for n in range(3, 11) for b, _ in classify.enumerate_bases(n)]
    assert len(bases) == 281
    assert calls == []
    entries = schubert._intersection_number.cache_info().currsize
    assert entries <= KERNEL_ENTRIES_UP_TO_10


def test_cold_enumeration_runs_no_recursion_and_no_per_base_k_pass():
    # the walk carries the K-theoretic class down its prefixes, so neither
    # the genus check nor a per-base (degree, genus) product runs
    clear_package_caches()
    bases = [b for n in range(3, 11) for b, _ in classify.enumerate_bases(n)]
    assert len(bases) == 281
    # nor a kernel call: degree, genus and minimum directrix are all read
    # off the walk
    for memo in (degeneration._genus, schubert._degree_genus, schubert._intersection_number):
        assert memo.cache_info()[:2] == (0, 0), memo


@pytest.mark.parametrize("name", ["verified_invariants", "degree", "min_directrix_degree"])
def test_point_query_takes_one_k_pass_and_no_kernel_call(name):
    clear_package_caches()
    ENTRY_POINTS[name](parse("9:4,4,5,6,7,7"))
    assert schubert._degree_genus.cache_info()[:2] == (0, 1)
    assert schubert._intersection_number.cache_info()[:2] == (0, 0)
