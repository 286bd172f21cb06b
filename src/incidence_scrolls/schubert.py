"""Exact Schubert calculus for lines in projective n-space.

Cohomology classes of the Grassmannian of lines G(1, n) are integer
combinations of two-row classes sigma_(a, b) with n-1 >= a >= b >= 0; the
special class sigma_c = sigma_(c, 0) collects the lines meeting a fixed
subspace of codimension c + 1.  The module has one kernel and one check:
intersection_number expands products of special classes with the Pieri
rule, and oracle_intersection_number evaluates the same top-degree product
by an independent bialternant computation in Z[x, y] that shares no code
with it.  _degree_genus runs the same kernel in K-theory and reads the
degree, the arithmetic genus and the minimum directrix degree of a base's
scroll off one pass.

The Pieri kernel, _pieri_step, keeps a class of pure codimension t as a
flat list of integers, vec[b] being the coefficient of sigma_(t-b, b) for
0 <= b <= t // 2.  Multiplying by sigma_c sends each vec[b] to one
contiguous range of new indices, so every new coefficient is a difference
of two prefix sums and a factor costs O(n).  The modules above this one
validate a base once, at their public functions; their _-prefixed helpers
take trusted (n, dims) tuples.

All arithmetic is exact (Python integers); intersection numbers grow like
Catalan numbers, so fixed-width arithmetic would overflow silently.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Sequence


class DimensionMismatchError(ValueError):
    """Total codimension differs from dim G(1, n) = 2n - 2."""


def _pieri_step(vec: list, t: int, n: int, c: int) -> list:
    """Multiply the codimension-t class vec by sigma_c inside G(1, n).

    sigma_(t-b, b) spreads over the horizontal-strip extensions
    sigma_(t+c-b2, b2) with b <= b2 <= min(t - b, b + c), provided the first
    row t+c-b2 stays <= n - 1, that is b2 >= t + c - (n-1).  Read the other
    way, the new coefficient at b2 is the sum of vec over the window
    max(0, b2 - c) <= b <= min(b2, t - b2), one difference of prefix sums.
    """
    t2 = t + c
    prefix = [0, *accumulate(vec)]
    first = t2 - (n - 1) if t2 > n - 1 else 0
    out = [0] * first
    for b2 in range(first, t2 // 2 + 1):
        hi = b2 if b2 < t - b2 else t - b2
        lo = b2 - c if b2 > c else 0
        out.append(prefix[hi + 1] - prefix[lo] if hi >= lo else 0)
    return out


def _k_step(v0: list, v1: list, t: int, n: int, c: int) -> tuple[list, list]:
    """Multiply the K-class (v0, v1) by O_c, the structure sheaf of sigma_c.

    v0 holds the terms of codimension t, as in _pieri_step, and v1 those of
    codimension t + 1.  By Lenart's K-Pieri rule O_(t-b, b) * O_c is the sum
    of the horizontal strips of size c minus those of size c + 1 that grow
    both rows.  So the new v1 at b2 is the Pieri window sum of v1 over
    max(0, b2 - c) <= b <= min(b2, t + 1 - b2) less the sum of v0 over the
    same window without its top end; terms two or more above the running
    codimension can never reach the top class and are dropped.
    """
    p0 = [0, *accumulate(v0)]
    p1 = [0, *accumulate(v1)]
    u, u2 = t + 1, t + 1 + c
    first = u2 - (n - 1) if u2 > n - 1 else 0
    w1 = [0] * first
    for b2 in range(first, u2 // 2 + 1):
        hi = b2 if b2 < u - b2 else u - b2
        lo = b2 - c if b2 > c else 0
        w1.append(p1[hi + 1] - p1[lo] - p0[hi] + p0[lo] if hi >= lo else 0)
    return _pieri_step(v0, t, n, c), w1


def _k_read_off(n: int, v0: list, v1: list, c: int) -> tuple[int, int, int]:
    """(d, g, min_dir) of the curve whose K-class is (v0, v1) times O_c, for
    (v0, v1) at t = 2n - 3 - c and c the largest codimension of the base.

    The product is [O_C] = d O_line + x O_pt, and every Schubert structure
    sheaf has Euler characteristic 1 (Brion), so the arithmetic genus is
    1 - chi(O_C) = 1 - d - x.  The last factor is read off, not multiplied:
    the strips of size c onto the line class sigma_(n-1, n-2) start at b =
    n - 2 - c and n - 1 - c, the one onto the point at b = n - 1 - c, and no
    strip of size c + 1 reaches the point growing both rows.  The directrix
    on the base space of codimension c is sigma_(c+1) in place of sigma_c,
    whose one strip onto the point starts at b = n - 2 - c; a point base
    space (c = n - 1) traces none.
    """
    min_dir = v0[n - 2 - c] if c < n - 1 else 0
    d = v0[n - 1 - c] + min_dir
    return d, 1 - d - v1[n - 1 - c], min_dir


def _check_codims(n: int, codims: Sequence[int]) -> None:
    if n < 2:
        raise ValueError("ambient projective dimension must be >= 2")
    for c in codims:
        if not 0 <= c <= n - 1:
            raise ValueError(f"codimension {c} outside [0, {n - 1}]")
    total = sum(codims)
    if total != 2 * n - 2:
        raise DimensionMismatchError(
            f"codimensions sum to {total}, need dim G(1, {n}) = {2 * n - 2}"
        )


def intersection_number(n: int, codims: Sequence[int]) -> int:
    """Evaluate the product of special classes sigma_c against the point class.

    Requires sum(codims) == 2n - 2; the result is the coefficient of
    sigma_(n-1, n-1) and is independent of factor order.
    """
    return _intersection_number(n, tuple(sorted(codims, reverse=True)))


@lru_cache(maxsize=None)
def _intersection_number(n: int, codims: tuple[int, ...]) -> int:
    _check_codims(n, codims)
    # _check_codims fixes the final codimension at 2n - 2, so vec ends with
    # exactly n entries; the last one, the point class, is never zero since
    # the shape (n-1, n-1) dominates every content whose parts fit the box
    vec, t = [1], 0
    for c in codims:
        if c:
            vec = _pieri_step(vec, t, n, c)
            t += c
    return vec[n - 1]


@lru_cache(maxsize=None)
def _degree_genus(n: int, dims: tuple[int, ...]) -> tuple[int, int, int]:
    """(degree, genus, minimum directrix degree) of the scroll of a trusted
    base with these sorted dimensions: the genus of a scroll is that of its
    curve of lines.

    The codimensions are multiplied in ascending order, so the factor read
    off is the largest, c.  The directrix on a base space raises its
    codimension by one, and its degree is the Kostka number K_(n-1, n-1),mu
    of the raised content mu.  Raising the largest codimension gives a
    content that dominates every other raise, and K_lambda,mu can only fall
    as mu rises in dominance order (Fulton, Young Tableaux), so the
    directrix on the smallest base space is a minimum one.

    The base is not checked again: every caller validates it, or normalizes
    a valid one, first.
    """
    codims = tuple(n - 1 - d for d in reversed(dims))
    v0, v1, t = [1], [0], 0
    for c in codims[:-1]:
        v0, v1 = _k_step(v0, v1, t, n, c)
        t += c
    return _k_read_off(n, v0, v1, codims[-1])


def _convolve(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def oracle_intersection_number(n: int, codims: Sequence[int]) -> int:
    """Independent evaluation of the same product via bivariate polynomials.

    The complete homogeneous polynomial h_c(x, y) = x^c + x^(c-1) y + ... + y^c
    represents sigma_c; the product of the h_c is expanded exactly and the
    coefficient of x^n y^(n-1) in (x - y) * prod h_c is the intersection
    number.  Shares no code with the Pieri path.
    """
    codims = tuple(codims)
    _check_codims(n, codims)
    # poly[i] = coefficient of x^i y^(deg - i); every factor is homogeneous
    poly = [1]
    for c in codims:
        poly = _convolve(poly, [1] * (c + 1))
    return poly[n - 1] - poly[n]
