import random
from fractions import Fraction
from itertools import permutations

import pytest

from liebox import ncpoly
from liebox.freelie import check_jacobi, expand_nested
from liebox.ncpoly import (
    NCPoly,
    full_multilinearization,
    homogeneous_split,
    is_trivial,
    multilinearize,
    witness_coefficients,
)


def test_split_footnote_example():
    # X1^2 X2^2 + X3^4 + (X1 X2 X3 X1 + X1^2 X3 X2)
    P = NCPoly(3, {
        (1, 1, 2, 2): 1,
        (3, 3, 3, 3): 1,
        (1, 2, 3, 1): 1,
        (1, 1, 3, 2): 1,
    })
    sigs = [sig for sig, _ in homogeneous_split(P)]
    assert sorted(sigs) == [(0, 0, 4), (2, 1, 1), (2, 2, 0)]
    total = NCPoly(3)
    for _, comp in homogeneous_split(P):
        total = total + comp
    assert total == P


def test_split_trivial_cases():
    P = NCPoly(2, {(1, 2): 1, (2, 1): -1})
    parts = homogeneous_split(P)
    assert len(parts) == 1 and parts[0][1] == P
    assert homogeneous_split(NCPoly(2)) == []


def test_multilinearize_square():
    P = NCPoly(1, {(1, 1): 1})
    Q = multilinearize(P, 1)
    assert Q.terms == {(1, 2): Fraction(1), (2, 1): Fraction(1)}


def test_multilinearize_cube_degrees():
    P = NCPoly(1, {(1, 1, 1): 1})
    Q = multilinearize(P, 1)
    degs = {Q.signature(w) for w in Q.terms}
    assert degs == {(1, 2), (2, 1)}


def test_multilinearize_rejects_linear():
    with pytest.raises(ValueError):
        multilinearize(NCPoly(2, {(1, 2): 1}), 1)


def test_witness_commutator():
    Q = NCPoly(2, {(1, 2): 1, (2, 1): -1})
    assert witness_coefficients(Q) == {(1, 2): Fraction(1), (2, 1): Fraction(-1)}


def test_witness_zero():
    assert witness_coefficients(NCPoly(2)) == {}


def test_witness_on_nested_expansion():
    Q = NCPoly.from_wordsum(expand_nested((1, 2, 3)), 3)
    assert witness_coefficients(Q) == {
        (1, 2, 3): Fraction(1),
        (1, 3, 2): Fraction(-1),
        (2, 3, 1): Fraction(-1),
        (3, 2, 1): Fraction(1),
    }


def test_witness_round_trip_random():
    # the recovered coefficients must equal the table the witness never reads
    rng = random.Random(7)
    for p in (2, 3, 4, 5, 6):
        perms = list(permutations(range(1, p + 1)))
        for _ in range(10):
            terms = {}
            for sigma in rng.sample(perms, k=min(4, len(perms))):
                terms[sigma] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            Q = NCPoly(p, terms)
            assert witness_coefficients(Q) == Q.terms
    rng = random.Random(5)
    degrees = set()
    for _ in range(60):
        d = rng.randint(1, 6)
        terms = {tuple(rng.randint(1, 4) for _ in range(d)):
                 Fraction(rng.randint(1, 9), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))}
        for piece in full_multilinearization(NCPoly(4, terms)):
            assert witness_coefficients(piece.poly) == piece.poly.terms
            degrees.add(piece.poly.degree())
    assert degrees == {1, 2, 3, 4, 5, 6}


def test_is_trivial_on_zero_combinations():
    zero_ws = check_jacobi((1,), (2,), (3,))
    P = NCPoly.from_wordsum(zero_ws, 3)
    flag, cert = is_trivial(P)
    assert flag and cert is None


def test_is_trivial_commutator_certificate():
    P = NCPoly(2, {(1, 2): 1, (2, 1): -1})
    flag, cert = is_trivial(P)
    assert not flag
    assert cert.sigma == (1, 2)
    assert cert.value == 1
    assert cert.collapsed_word == (1, 2)


def test_constant_polynomial_is_certified():
    # the empty word is the one multilinear word of degree 0
    flag, cert = is_trivial(NCPoly(2, {(): 3}))
    assert not flag and cert.collapsed_word == () and cert.value == 3


def test_certificate_collapse_matches_coefficient():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 3)
        p = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randint(1, m) for _ in range(p))
            terms[w] = Fraction(rng.randint(1, 9))
        P = NCPoly(m, terms)
        if P.is_zero():
            continue
        flag, cert = is_trivial(P)
        assert not flag
        assert P.terms.get(cert.collapsed_word) == cert.value


def test_is_trivial_matches_zero_table_random():
    rng = random.Random(13)
    for _ in range(1000):
        m = rng.randint(1, 3)
        p = rng.randint(1, 5)
        terms = {}
        for _ in range(rng.randint(0, 4)):
            w = tuple(rng.randint(1, m) for _ in range(p))
            c = Fraction(rng.randint(-5, 5))
            terms[w] = terms.get(w, Fraction(0)) + c
        P = NCPoly(m, {w: c for w, c in terms.items() if c != 0})
        flag, _ = is_trivial(P)
        assert flag == P.is_zero()


def test_is_trivial_polarizes_lazily(monkeypatch):
    # X3^6 comes first in signature order; its polarization is queued behind
    # the commutator, whose piece already certifies P
    calls = []
    original = ncpoly.multilinearize

    def counting(P, var):
        calls.append(var)
        return original(P, var)

    monkeypatch.setattr(ncpoly, "multilinearize", counting)
    P = NCPoly(3, {(1, 2): 1, (2, 1): -1, (3,) * 6: 1})
    flag, cert = is_trivial(P)
    assert not flag and P.terms.get(cert.collapsed_word) == cert.value
    assert calls == [3]


def test_multilinear_pieces_have_unit_degrees():
    P = NCPoly(2, {(1, 1, 2): 2, (2, 1, 1): -3})
    for piece in full_multilinearization(P):
        poly = piece.poly
        p = poly.degree()
        for w in poly.terms:
            assert sorted(w) == list(range(1, p + 1))
        assert len(piece.origin) == p


def test_json_round_trip():
    P = NCPoly(3, {(1, 2, 3): Fraction(2, 3), (2,): -1})
    obj = {"degree": 3, "alphabet": 3,
           "terms": [{"word": [1, 2, 3], "coeff": "2/3"}, {"word": [2], "coeff": "-1"}]}
    assert NCPoly.from_json(obj) == P


def test_arithmetic_keeps_ncpoly_and_covers_both_alphabets():
    A, B = NCPoly(2, {(1,): 1}), NCPoly(3, {(3,): Fraction(1, 2)})
    for out, alphabet in ((A + B, 3), (A - B, 3), (B - A, 3), (A.scale(2), 2),
                          (B.scale(0), 3), (A + expand_nested((1, 4)), 4)):
        assert isinstance(out, NCPoly) and out.alphabet == alphabet
    assert (A - B).terms == {(1,): 1, (3,): Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in (A + expand_nested((1, 4))).terms.values())
    P = NCPoly(2, {(1,): 1}) + NCPoly(2, {(2,): 1})
    flag, cert = is_trivial(P)
    assert not flag and cert.collapsed_word == (2,) and cert.value == 1


@pytest.mark.parametrize("coeff", [0.1, 1.0, True, None])
def test_json_rejects_inexact_coefficients(coeff):
    obj = {"alphabet": 2, "terms": [{"word": [1, 2], "coeff": coeff}]}
    with pytest.raises(TypeError, match="expected exact rational"):
        NCPoly.from_json(obj)


@pytest.mark.parametrize("alphabet", [2.7, True, "2"])
def test_json_rejects_non_integer_alphabet(alphabet):
    obj = {"alphabet": alphabet, "terms": [{"word": [1, 2], "coeff": "1"}]}
    with pytest.raises(ValueError, match="alphabet must be integers"):
        NCPoly.from_json(obj)


@pytest.mark.parametrize("word", [[1.7, 2], [True, 2], [1, 2.0]])
def test_non_integer_letters_raise(word):
    with pytest.raises(ValueError, match="letters must be integers"):
        NCPoly(2, {tuple(word): 1})
