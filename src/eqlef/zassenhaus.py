"""Zassenhaus factorization of primitive integer polynomials, integers only.

:func:`factor_primitive` is the pipeline behind
:func:`eqlef.exact_algebra.factor_over_Q`, which imports this module on its
first call:

* Yun's square-free decomposition over ℤ;
* for each square-free part of degree three or more, distinct-degree
  factorization modulo up to three primes, where one factor, or degree sums
  that meet only in {0, n} (Musser 1978), prove the part irreducible;
* otherwise equal-degree splitting modulo the prime with the fewest factors
  (Cantor & Zassenhaus, Math. Comp. 1981), multifactor quadratic Hensel
  lifting past twice the leading coefficient times the Mignotte bound (von
  zur Gathen & Gerhard, *Modern Computer Algebra*, Alg. 15.10 and 15.17),
  and recombination by subset size (Zassenhaus, J. Number Theory 1969),
  refused past :data:`~eqlef.exact_algebra.MAX_RECOMBINATION_SUBSETS`
  subsets.

Polynomials here are coefficient lists, lowest degree first, with no
trailing zeros.  A modulus m > 0 reduces every coefficient into [0, m);
m = 0 keeps integers.  Divisors modulo m need a unit leading coefficient.
The list kernels for addition, multiplication, exact division over ℤ and
the content split live in :mod:`eqlef.exact_algebra`, whose polynomial
class uses them too; the modular division, gcd and powering below are this
module's own.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable

from .exact_algebra import (
    MAX_RECOMBINATION_SUBSETS,
    _add,
    _exact_divide,
    _mul,
    _reduce,
    _split_content,
    _sub,
    _trim,
)

__all__ = ["factor_primitive"]


def factor_primitive(f: list[int]) -> list[tuple[list[int], int]]:
    """The (irreducible factor, multiplicity) pairs of a primitive ``f`` of positive degree.

    ``f`` has a positive leading coefficient; so has each factor, and each
    is primitive.  Raises ``ValueError`` past ``MAX_RECOMBINATION_SUBSETS``.

    >>> factor_primitive([1, -2, 1, 2, -4, 2])  # (2x³ + 1)·(x − 1)²
    [([1, 0, 0, 2], 1), ([-1, 1], 2)]
    """
    return [
        (factor, multiplicity)
        for part, multiplicity in _square_free_parts(f)
        for factor in _factor_square_free(part)
    ]


def _divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ``a`` by ``b`` modulo ``m``."""
    db = len(b) - 1
    if len(a) <= db:
        return [], _reduce(a, m)
    inverse = pow(b[-1], -1, m)
    remainder = list(a)
    quotient = [0] * (len(a) - db)
    for i in range(len(quotient) - 1, -1, -1):
        q = remainder[i + db] * inverse % m
        quotient[i] = q
        if q:
            for j in range(db):
                remainder[i + j] -= q * b[j]
    return _trim(quotient), _reduce(remainder[:db], m)


def _monic(a: list[int], m: int) -> list[int]:
    inverse = pow(a[-1], -1, m)
    return [c * inverse % m for c in a]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd modulo the prime ``p`` of ``a`` ≠ 0 and ``b``."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _power_mod(a: list[int], exponent: int, g: list[int], p: int) -> list[int]:
    """``a**exponent`` modulo ``g`` and the prime ``p``, by repeated squaring."""
    result, base = [1], _divmod(a, g, p)[1]
    while exponent:
        if exponent & 1:
            result = _divmod(_mul(result, base), g, p)[1]
        exponent >>= 1
        if exponent:
            base = _divmod(_mul(base, base), g, p)[1]
    return result


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _odd_primes() -> Iterable[int]:
    n = 3
    while True:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _gcd_Z(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, with a positive leading coefficient, of ``a`` ≠ 0 and ``b``.

    A prime that divides neither leading coefficient and keeps ``a`` and
    ``b`` coprime proves them coprime, the usual case, so three such primes
    are tried first; otherwise the primitive remainder sequence runs.
    """
    a = _split_content(a)[1]
    if not b:
        return a
    b = _split_content(b)[1]
    if len(a) < len(b):
        a, b = b, a
    primes = (p for p in _odd_primes() if a[-1] % p and b[-1] % p)
    for p in itertools.islice(primes, 3):
        if len(_gcd_mod(_reduce(a, p), _reduce(b, p), p)) == 1:
            return [1]
    while len(b) > 1:
        # The pseudo-remainder of a by b: lc(b)^(deg a − deg b + 1)·a mod b.
        remainder = list(a)
        for top in range(len(a) - 1, len(b) - 2, -1):
            c = remainder[top]
            remainder = [v * b[-1] for v in remainder[:top]]
            for j in range(len(b) - 1):
                remainder[top - len(b) + 1 + j] -= c * b[j]
        a, b = b, _trim(remainder)
        if not b:
            return a
        b = _split_content(b)[1]
    return [1]


def _square_free_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition of a primitive ``f`` of positive degree.

    Returns the (part, multiplicity) pairs with f = Π partᵢ^i whose part is
    not constant; the parts are square-free, pairwise coprime and primitive.
    """
    if len(f) == 3 and f[1] * f[1] == 4 * f[0] * f[2]:
        return [(_split_content([f[1], 2 * f[2]])[1], 2)]  # (2a·x + b)² / 4a
    if len(f) <= 3:
        return [(f, 1)]  # linear, or quadratic with a nonzero discriminant
    df = _derivative(f)
    b = _gcd_Z(f, df)
    if len(b) == 1:
        return [(f, 1)]
    c = _exact_divide(f, b)
    d = _sub(_exact_divide(df, b), _derivative(c))
    parts = []
    multiplicity = 1
    while len(c) > 1:
        a = _gcd_Z(c, d)
        if len(a) > 1:
            parts.append((a, multiplicity))
            c = _exact_divide(c, a)
            d = _exact_divide(d, a)
        d = _sub(d, _derivative(c))
        multiplicity += 1
    return parts


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(product, d) pairs: the factors of degree d mod ``p`` of a monic square-free ``f``."""
    parts = []
    h = x = [0, 1]
    d = 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _power_mod(h, p, f, p)  # x^(p^d) mod f
        u = _gcd_mod(f, _sub(h, x, p), p)
        if len(u) > 1:
            parts.append((u, d))
            f = _divmod(f, u, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        parts.append((f, len(f) - 1))
    return parts


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors mod ``p`` of ``g``, all of degree ``d``.

    Cantor–Zassenhaus: gcd(g, a^((p^d − 1)/2) − 1) for random ``a`` splits g.
    """
    if len(g) - 1 == d:
        return [g]
    exponent = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        u = _gcd_mod(g, _sub(_power_mod(a, exponent, g, p), [1], p), p)
        if 1 < len(u) < len(g):
            return _equal_degree(u, d, p, rng) + _equal_degree(_divmod(g, u, p)[0], d, p, rng)


def _hensel_step(
    m: int, f: list[int], g: list[int], h: list[int], s: list[int], t: list[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """One quadratic Hensel step (von zur Gathen & Gerhard, Alg. 15.10).

    From f ≡ g·h and s·g + t·h ≡ 1 modulo some n, with h monic, returns
    the same four lifted modulo ``m``, any divisor of n².
    """
    e = _sub(f, _mul(g, h), m)
    q, r = _divmod(_mul(s, e), h, m)
    g = _add(g, _add(_mul(t, e), _mul(q, g)), m)
    h = _add(h, r, m)
    b = _sub(_add(_mul(s, g), _mul(t, h)), [1], m)
    c, d = _divmod(_mul(s, b), h, m)
    return g, h, _sub(s, d, m), _sub(t, _add(_mul(t, b), _mul(c, g)), m)


def _hensel_lift(
    f: list[int], factors: list[list[int]], p: int, exponents: list[int]
) -> list[list[int]]:
    """Monic lifts of f's monic factors mod ``p`` to p^e for the last e of ``exponents``.

    The factor tree of von zur Gathen & Gerhard, Alg. 15.17: f ≡ g·h splits
    the factors in halves, the pair lifts through the moduli p^e for the e
    in ``exponents`` after the first, 1 (each at most twice the one before),
    and each half recurses.
    """
    if len(factors) == 1:
        return [_monic(f, p ** exponents[-1])]
    half = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for u in factors[:half]:
        g = _mul(g, u, p)
    for u in factors[half:]:
        h = _mul(h, u, p)
    # Extended Euclid modulo p for s·g + t·h ≡ 1.
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1), p)
    unit = pow(r0[0], -1, p)
    s, t = _mul(s0, [unit], p), _mul(t0, [unit], p)
    for e in exponents[1:]:
        g, h, s, t = _hensel_step(p**e, f, g, h, s, t)
    return _hensel_lift(g, factors[:half], p, exponents) + _hensel_lift(
        h, factors[half:], p, exponents
    )


def _factor_square_free(f: list[int]) -> list[list[int]]:
    """The irreducible factors of a primitive square-free ``f``, leading coefficient > 0."""
    n, lc = len(f) - 1, f[-1]
    if n == 1:
        return [f]
    if n == 2:
        c, b, a = f
        root = math.isqrt(max(b * b - 4 * a * c, 0))
        if root * root != b * b - 4 * a * c:
            return [f]
        # Each rational root r/(2a) gives the factor (2a·x − r)/gcd(r, 2a).
        return [
            [-r // math.gcd(r, 2 * a), 2 * a // math.gcd(r, 2 * a)] for r in (-b + root, -b - root)
        ]
    candidates = []  # (factor count, prime, distinct-degree parts)
    degree_sums = -1  # bit k set: every prime so far allows a factor of degree k
    for p in _odd_primes():
        if lc % p == 0:
            continue
        fp = _monic(_reduce(f, p), p)
        if len(_gcd_mod(fp, _reduce(_derivative(fp), p), p)) > 1:
            continue
        parts = _distinct_degree(fp, p)
        sums = 1
        for u, d in parts:
            for _ in range((len(u) - 1) // d):
                sums |= sums << d
        degree_sums &= sums
        if degree_sums == 1 | 1 << n:
            return [f]
        candidates.append((sum((len(u) - 1) // d for u, d in parts), p, parts))
        if len(candidates) == 3:
            break
    _, p, parts = min(candidates)
    rng = random.Random(0)
    modular = [u for part, d in parts for u in _equal_degree(part, d, p, rng)]
    # A factor's coefficients are at most B = √(n+1)·2ⁿ·max|fᵢ| (Mignotte);
    # lc·factor/lc(factor) is read off modulo p^L > 2·lc·B.
    bound = 2 * lc * (math.isqrt(n + 1) + 1) * 2**n * max(abs(c) for c in f)
    top = 1
    while p**top <= bound:
        top += 1
    exponents = [top]
    while exponents[-1] > 1:
        exponents.append((exponents[-1] + 1) // 2)
    lifted = _hensel_lift(f, modular, p, exponents[::-1])
    return _recombine(f, lifted, p**top, degree_sums)


def _recombine(
    f: list[int], lifted: list[list[int]], modulus: int, degree_sums: int
) -> list[list[int]]:
    """Zassenhaus recombination of the lifted modular factors, smallest subsets first.

    A subset's candidate is lc(f)·Π factors read symmetrically mod
    ``modulus``; a degree sum outside ``degree_sums`` or a constant term that
    cannot divide lc(f)·f(0) rules it out before exact trial division.
    """
    found = []
    remaining = list(range(len(lifted)))
    size = tried = 0
    half = modulus // 2
    while 2 * (size + 1) <= len(remaining):
        size += 1
        for subset in itertools.combinations(remaining, size):
            tried += 1
            if tried > MAX_RECOMBINATION_SUBSETS:
                raise ValueError(
                    f"factoring a degree-{len(f) - 1} polynomial with {len(lifted)} modular "
                    f"factors needs more than MAX_RECOMBINATION_SUBSETS = "
                    f"{MAX_RECOMBINATION_SUBSETS} recombination subsets."
                )
            if not degree_sums >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            constant = f[-1]
            for i in subset:
                constant = constant * lifted[i][0] % modulus
            if constant > half:
                constant -= modulus
            if (f[-1] * f[0] % constant if constant else f[0]) != 0:
                continue
            candidate = [f[-1]]
            for i in subset:
                candidate = _mul(candidate, lifted[i], modulus)
            candidate = _split_content([c - modulus if c > half else c for c in candidate])[1]
            quotient = _exact_divide(f, candidate)
            if quotient is not None:
                found.append(candidate)
                f = quotient
                remaining = [i for i in remaining if i not in subset]
                size -= 1  # the same size may find another factor
                break
    return found + [f]
