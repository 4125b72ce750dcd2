"""The one exact term table under Poly and WordSum, against plain dicts.

NCPoly sums are checked in ``test_ncpoly.py``.
"""

import random
from fractions import Fraction

import pytest

from liebox.freelie import WordSum
from liebox.poly import Poly


def dict_sum(*tables):
    """Plain-dict reference: the sum of ``(sign, table)`` pairs, zeros dropped."""
    out = {}
    for sign, table in tables:
        for k, c in table.items():
            out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c != 0}


def dict_product(a, b, key):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = key(ka, kb)
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c != 0}


def random_poly(rng, nvars=2):
    # few exponents and small coefficients, so that terms often cancel
    return Poly(nvars, [
        (tuple(rng.randint(0, 2) for _ in range(nvars)),
         Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 5))
    ])


def random_wordsum(rng):
    s = WordSum()
    for _ in range(rng.randint(0, 5)):
        s._add(tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2))), rng.randint(-2, 2))
    return s


def check_table(s, coefficient_type):
    assert all(c != 0 for c in s.terms.values())
    assert all(type(c) is coefficient_type for c in s.terms.values())


@pytest.mark.parametrize("kind", ["poly", "wordsum"])
def test_arithmetic_matches_plain_dicts(kind):
    rng = random.Random(25)
    if kind == "poly":
        make, ctype = random_poly, Fraction
        key, product = (lambda a, b: tuple(x + y for x, y in zip(a, b))), Poly.__mul__
        scalars = [0, 1, -2, Fraction(3, 4)]
    else:
        make, ctype = random_wordsum, int
        key, product = (lambda a, b: a + b), WordSum.concat
        scalars = [0, 1, -2, 3]
    for _ in range(200):
        a, b = make(rng), make(rng)
        check_table(a, ctype)
        assert (a + b).terms == dict_sum((1, a.terms), (1, b.terms))
        assert (a - b).terms == dict_sum((1, a.terms), (-1, b.terms))
        assert (-a).terms == dict_sum((-1, a.terms))
        assert (a - a).is_zero() and len(a - a) == 0
        assert product(a, b).terms == dict_product(a.terms, b.terms, key)
        for c in scalars:
            assert a.scale(c).terms == dict_sum((c, a.terms))
        for s in (a + b, a - b, -a, product(a, b), a.scale(-2), a.scale(0)):
            assert type(s) is type(a)
            check_table(s, ctype)


def test_poly_variable_count_mismatch_raises():
    a, b = Poly.var(2, 0), Poly.var(3, 0)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
        with pytest.raises(ValueError, match="variable count mismatch"):
            op()
