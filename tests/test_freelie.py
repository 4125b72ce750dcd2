import random
from fractions import Fraction
from itertools import product

import pytest

from liebox.freelie import (
    WordSum,
    assoc_bracket,
    check_F,
    check_J2,
    check_baker,
    check_generalized_jacobi,
    check_giochetto,
    check_jacobi,
    expand_nested,
    nested_sum,
    signed_expansion,
)


def oracle_expand(w):
    """Right-nested bracket by direct recursion on the concatenation product.

    Independent of the permutation-coefficient machinery; used as the oracle
    for every expansion in this file.
    """
    if len(w) == 1:
        return {tuple(w): 1}
    inner = oracle_expand(w[1:])
    head = (w[0],)
    out = {}
    for word, c in inner.items():
        for key, val in ((head + word, c), (word + head, -c)):
            acc = out.get(key, 0) + val
            if acc == 0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def words_up_to(max_len, alphabet):
    for ell in range(1, max_len + 1):
        yield from product(range(1, alphabet + 1), repeat=ell)


def test_expand_frozen_small_cases():
    assert expand_nested((1, 2)).terms == {(1, 2): 1, (2, 1): -1}
    assert expand_nested((1, 2, 3)).terms == {
        (1, 2, 3): 1,
        (1, 3, 2): -1,
        (2, 3, 1): -1,
        (3, 2, 1): 1,
    }
    assert expand_nested((1, 2, 3, 4)).terms == oracle_expand((1, 2, 3, 4))


def test_expand_matches_oracle_exhaustively():
    for w in words_up_to(6, 3):
        assert expand_nested(w).terms == oracle_expand(w), w


def test_expand_term_count_distinct_letters():
    for ell in range(1, 7):
        w = tuple(range(1, ell + 1))
        s = expand_nested(w)
        assert len(s) == 2 ** (ell - 1)
        assert all(c in (-1, 1) for c in s.terms.values())


def test_nested_sum_matches_scaled_oracle_sum():
    rng = random.Random(5)
    for _ in range(50):
        pairs = [
            (tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5))),
             Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 6))
        ]
        expected = {}
        for w, c in pairs:
            for u, s in oracle_expand(w).items():
                expected[u] = expected.get(u, 0) + s * c
        assert nested_sum(pairs).terms == {u: c for u, c in expected.items() if c}
    # a pair and its negative cancel to the empty table
    assert nested_sum([((1, 2, 3), 2), ((1, 2, 3), -2)]).terms == {}


def test_wordsum_algebra():
    a = WordSum.single((1,), 2)
    b = WordSum.single((2,), Fraction(1, 3))
    assert (a + b - a) == b
    assert (a - a).is_zero()
    assert a.scale(0).is_zero()
    assert a.concat(b).terms == {(1, 2): Fraction(2, 3)}


def test_assoc_bracket_basics():
    assert assoc_bracket(1, 2) == expand_nested((1, 2))
    x = expand_nested((1, 2, 3))
    assert assoc_bracket(x, x).is_zero()
    # prepending a letter equals bracketing with it
    for v in words_up_to(4, 3):
        for i in (1, 2, 3):
            assert assoc_bracket(i, expand_nested(v)) == expand_nested((i,) + v)


def test_jacobi_zero():
    assert check_jacobi((1,), (2,), (3,)).is_zero()
    assert check_jacobi((1,), (1,), (2,)).is_zero()
    assert check_jacobi((1, 2), (3,), (4,)).is_zero()


def test_generalized_jacobi_named_cases():
    assert check_generalized_jacobi((1,), (2, 3)).is_zero()
    assert check_generalized_jacobi((1, 2), (3,)).is_zero()
    assert check_generalized_jacobi((1, 2, 3), (4, 5)).is_zero()


def test_generalized_jacobi_small_sweep():
    for v in words_up_to(3, 2):
        for w in words_up_to(2, 2):
            assert check_generalized_jacobi(v, w).is_zero(), (v, w)


def test_J2_cases():
    assert check_J2((1, 2)).is_zero()
    assert check_J2((1, 2, 3)).is_zero()
    assert check_J2((1, 2, 1, 2)).is_zero()
    # the order-4 specialization reduces to 2*X_(1212) = -2*X_(2121)
    lhs = expand_nested((1, 2, 1, 2)).scale(2)
    rhs = expand_nested((2, 1, 2, 1)).scale(-2)
    assert lhs == rhs


def test_J2_requires_length_two():
    with pytest.raises(ValueError):
        check_J2((1,))


def test_F_twelve_term_case():
    # p=2 with exponents (1, b) and empty w: the explicit twelve-term check
    for b in (1, 2, 3):
        res = check_F(3, 2, (1, b))
        assert not res.known_failure
        assert res.residual.is_zero(), b


def test_F_simple_and_zero_exponents():
    assert check_F(2, 1, (1,), w=(3,)).residual.is_zero()
    assert check_F(3, 2, (0, 1), w=(4,)).residual.is_zero()
    assert check_F(4, 2, (2, 1)).residual.is_zero()


def test_F_fails_at_p_equal_ell():
    res = check_F(2, 2, (1, 1))
    assert res.known_failure
    assert not res.residual.is_zero()
    res3 = check_F(3, 3, (1, 1, 1))
    assert res3.known_failure
    assert not res3.residual.is_zero()


def test_F_rejects_bad_exponents():
    with pytest.raises(ValueError):
        check_F(3, 2, (0, 0))
    with pytest.raises(ValueError):
        check_F(3, 2, (1,))


@pytest.mark.parametrize("b", [(1.5, 1), (1.0, 1), (True, 1)])
def test_F_rejects_non_integer_exponents(b):
    with pytest.raises(ValueError, match="exponents must be integers"):
        check_F(3, 2, b)


def test_signed_expansion_equals_pi_expansion():
    assert signed_expansion((1, 2)).terms == {(1, 2): 1, (2, 1): -1}
    for v in words_up_to(6, 3):
        assert signed_expansion(v) == expand_nested(v), v


def test_giochetto_cases():
    assert check_giochetto((1, 2), (3,)).is_zero()
    # v = b^4 a with a=1, b=2, prepended letter a
    assert check_giochetto((2, 2, 2, 2, 1), (1,)).is_zero()
    for v in words_up_to(3, 2):
        if len(v) != 3:
            continue
        for w in ((1,), (2,)):
            assert check_giochetto(v, w).is_zero(), (v, w)


def test_giochetto_binomial_collection():
    # collecting equal words in the b^4 a case gives the binomial combination;
    # the placement word b^4 a gets w = a appended and [a, a] = 0 drops it
    a, b = 1, 2
    assert signed_expansion((b, b, b, b, a)).terms == {
        (b, b, b, b, a): 1, (b, b, b, a, b): -4, (b, b, a, b, b): 6,
        (b, a, b, b, b): -4, (a, b, b, b, b): 1,
    }
    assert expand_nested((b, b, b, b, a, a)).is_zero()
    e = expand_nested
    combo = (
        e((a, b, b, b, b, a))
        - e((b, b, b, a, b, a)).scale(4)
        + e((b, b, a, b, b, a)).scale(6)
        - e((b, a, b, b, b, a)).scale(4)
        + e((a, b, b, b, b, a))
    )
    assert combo.is_zero()


def test_baker_report_all_zero():
    report = check_baker()
    assert set(report) == {
        "order4_swap",
        "order4_antisym",
        "order4_reversal",
        "order6_intermediate",
        "order6_baker",
    }
    for name, residual in report.items():
        assert residual.is_zero(), name
