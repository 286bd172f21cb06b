"""Property-based checks of the exact arithmetic."""

from hypothesis import example, given, settings, strategies as st

from incidence_scrolls.base import IncidenceBase, _degree, normalize, validate
from incidence_scrolls.degeneration import _genus
from incidence_scrolls.schubert import (
    _degree_genus,
    _k_step,
    intersection_number,
    _pieri_step,
    oracle_intersection_number,
)


@st.composite
def boxed_class(draw, n):
    """A shape (a, b) of sigma_(a, b) inside the 2 x (n-1) box."""
    a = draw(st.integers(min_value=0, max_value=n - 1))
    b = draw(st.integers(min_value=0, max_value=a))
    return a, b


@st.composite
def codim_multiset(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    total = 2 * n - 2
    parts = []
    while total > 0:
        c = draw(st.integers(min_value=1, max_value=min(n - 1, total)))
        parts.append(c)
        total -= c
    return n, parts


@given(codim_multiset())
@settings(max_examples=200, deadline=None)
def test_pieri_equals_bialternant(data):
    n, codims = data
    assert intersection_number(n, codims) == oracle_intersection_number(n, codims)


@given(codim_multiset(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_product_order_independence(data, rng):
    n, codims = data
    shuffled = list(codims)
    rng.shuffle(shuffled)
    assert intersection_number(n, shuffled) == intersection_number(n, codims)


@given(st.integers(min_value=3, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), boxed_class(n), st.integers(min_value=0, max_value=n - 1))
))
@settings(max_examples=200, deadline=None)
def test_pieri_effective_and_pure(data):
    n, (a, b), c = data
    t = a + b
    vec = [0] * (t // 2 + 1)
    vec[b] = 1
    out = _pieri_step(vec, t, n, c)
    assert all(coeff >= 0 for coeff in out)
    # every surviving term is a boxed shape of codimension t + c
    assert all(
        t + c - b2 <= n - 1 and b2 <= t + c - b2 for b2, coeff in enumerate(out) if coeff
    )
    # total multiplicity of a strip extension never exceeds the strip length
    assert sum(out) <= c + 1


@st.composite
def codims_with_zeros(draw):
    """Codimensions summing to 2n - 2 with n up to 40, sometimes led by the
    point condition c = n - 1 and padded with identity factors c = 0."""
    n = draw(st.integers(min_value=2, max_value=40))
    parts = [n - 1] if draw(st.booleans()) else []
    total = 2 * n - 2 - sum(parts)
    while total > 0:
        c = draw(st.integers(min_value=1, max_value=min(n - 1, total)))
        parts.append(c)
        total -= c
    parts += [0] * draw(st.integers(min_value=0, max_value=3))
    return n, draw(st.permutations(parts))


@given(codims_with_zeros())
@example((2, [0, 1, 0, 1]))
@example((40, [39, 0, 39]))
@settings(max_examples=200, deadline=None)
def test_flat_kernel_equals_bialternant_up_to_40(data):
    # top-degree products of special classes never vanish; vanishing
    # products only arise from general classes, see the term-by-term tests
    n, codims = data
    value = intersection_number(n, codims)
    assert value == oracle_intersection_number(n, codims)
    assert value > 0


def term_by_term_pieri(n: int, terms: dict, c: int) -> dict:
    """Reference Pieri product of {(a, b): coeff} by sigma_c in G(1, n),
    expanded one horizontal strip at a time."""
    out: dict = {}
    for (a, b), coeff in terms.items():
        for a2 in range(max(a, b + c), min(n - 1, a + c) + 1):
            key = (a2, a + b + c - a2)
            out[key] = out.get(key, 0) + coeff
    return out


def as_terms(vec: list, t: int) -> dict:
    """The nonzero terms {(t - b, b): coeff} of a flat codimension-t state."""
    return {(t - b, b): v for b, v in enumerate(vec) if v}


@given(st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(min_value=0, max_value=n - 1), max_size=8)
    )
))
@example((3, [2, 2, 1]))  # passes dim G(1, 3) = 4: the product is zero
@example((5, [4, 0, 4, 4]))
@settings(max_examples=200, deadline=None)
def test_flat_state_matches_term_by_term_products(data):
    # a product of special classes vanishes exactly when its codimension
    # exceeds dim G(1, n) = 2n - 2
    n, codims = data
    vec, t, terms = [1], 0, {(0, 0): 1}
    for c in codims:
        vec, t = _pieri_step(vec, t, n, c), t + c
        terms = term_by_term_pieri(n, terms, c)
        assert as_terms(vec, t) == terms
        assert any(vec) == (t <= 2 * n - 2)


@st.composite
def effective_cycle_sum(draw):
    """(n, t, {(a, b): coeff}, c): a positive sum of boxed codimension-t
    shapes in G(1, n) and the index of the special factor."""
    n = draw(st.integers(min_value=2, max_value=12))
    t = draw(st.integers(min_value=0, max_value=2 * n - 2))
    shapes = [(t - b, b) for b in range(t // 2 + 1) if t - b <= n - 1]
    chosen = draw(st.lists(st.sampled_from(shapes), unique=True, max_size=len(shapes)))
    coeffs = st.integers(min_value=1, max_value=10**30)
    terms = {shape: draw(coeffs) for shape in chosen}
    c = draw(st.integers(min_value=0, max_value=n - 1))
    return n, t, terms, c


@given(effective_cycle_sum())
@example((3, 2, {(1, 1): 1}, 2))  # no strip fits: zero
@example((4, 6, {(3, 3): 7}, 1))  # past the point class
@settings(max_examples=200, deadline=None)
def test_pieri_step_matches_term_by_term(data):
    n, t, terms, c = data
    vec = [terms.get((t - b, b), 0) for b in range(t // 2 + 1)]
    assert as_terms(_pieri_step(vec, t, n, c), t + c) == term_by_term_pieri(n, terms, c)


@st.composite
def arbitrary_base(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    r = draw(st.integers(min_value=1, max_value=6))
    dims = tuple(draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(r))
    return IncidenceBase(n, dims)


@given(arbitrary_base())
@settings(max_examples=300, deadline=None)
def test_normalize_idempotent_and_defect_preserving(b):
    from incidence_scrolls.base import UnrealizableBaseError

    defect = b.condition_count() - (2 * b.ambient - 3)
    try:
        reduced = normalize(b)
    except UnrealizableBaseError:
        return
    assert normalize(reduced) == reduced
    assert reduced.condition_count() - (2 * reduced.ambient - 3) == defect
    report = validate(reduced)
    assert report.no_hyperplanes and report.nondegenerate


def term_by_term_k_pieri(n: int, terms: dict, c: int, top: int) -> dict:
    """Reference K-theoretic Pieri product of {(a, b): coeff} by O_c in
    G(1, n) (Lenart): the strips of size c, minus the strips of size c + 1
    that grow both rows, keeping the terms of codimension <= top."""
    out = term_by_term_pieri(n, terms, c)
    for (a, b), coeff in terms.items():
        for a2 in range(a + 1, n):
            b2 = a + b + c + 1 - a2
            if b < b2 <= a:
                out[(a2, b2)] = out.get((a2, b2), 0) - coeff
    return {k: v for k, v in out.items() if v and sum(k) <= top}


@st.composite
def k_state(draw):
    """(n, t, v0, v1, c): a K-class of codimensions t and t + 1 in G(1, n)
    and the index of the structure sheaf it is multiplied by."""
    n = draw(st.integers(min_value=2, max_value=12))
    t = draw(st.integers(min_value=0, max_value=2 * n - 3))
    coeffs = st.integers(min_value=-(10**12), max_value=10**12)

    def vec(u):
        return [draw(coeffs) if u - b <= n - 1 else 0 for b in range(u // 2 + 1)]

    return n, t, vec(t), vec(t + 1), draw(st.integers(min_value=1, max_value=n - 1))


@given(k_state())
@example((3, 1, [1], [0, 1], 1))
@settings(max_examples=200, deadline=None)
def test_k_step_matches_term_by_term(data):
    n, t, v0, v1, c = data
    w0, w1 = _k_step(v0, v1, t, n, c)
    terms = {**as_terms(v0, t), **as_terms(v1, t + 1)}
    assert {**as_terms(w0, t + c), **as_terms(w1, t + c + 1)} == term_by_term_k_pieri(
        n, terms, c, t + c + 1
    )


@st.composite
def valid_base_codims(draw):
    """(n, codims) of a random valid base in P^n, n <= 25, codims in
    descending order: they sum to 2n - 3, none exceeds n - 2 and the two
    largest sum to at most n - 1."""
    n = draw(st.integers(min_value=3, max_value=25))
    codims = [draw(st.integers(min_value=1, max_value=n - 2))]
    cap, left = min(codims[0], n - 1 - codims[0]), 2 * n - 3 - codims[0]
    while left:
        c = draw(st.integers(min_value=1, max_value=min(cap, left)))
        codims.append(c)
        cap, left = c, left - c
    return n, tuple(codims)


@given(valid_base_codims())
@example((5, (2, 1, 1, 1, 1, 1)))  # 5:2,3,3,3,3,3, a special scroll
@example((25, (23,) + (1,) * 24))  # the chain 25:1,23,...,23
@settings(max_examples=100, deadline=None)
def test_k_theoretic_degree_genus_equals_the_recursion(data):
    n, codims = data
    dims = tuple(sorted(n - 1 - c for c in codims))
    assert validate(IncidenceBase(n, dims)).all_ok
    assert _degree_genus(n, codims) == (_degree(n, dims), _genus(n, dims))
