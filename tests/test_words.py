from itertools import permutations

import numpy as np
import pytest

from liebox.words import (
    apply_perm,
    check_perm,
    check_word,
    pi_coefficient,
    pi_support,
    pi_table,
)

# Signed order-4 expansion, frozen from the published 4th-order formula:
# +1234 -1243 -1342 +1432 -2341 +2431 +3421 -4321
ORDER4_SIGNS = {
    (1, 2, 3, 4): 1,
    (1, 2, 4, 3): -1,
    (1, 3, 4, 2): -1,
    (1, 4, 3, 2): 1,
    (2, 3, 4, 1): -1,
    (2, 4, 3, 1): 1,
    (3, 4, 2, 1): 1,
    (4, 3, 2, 1): -1,
}


def test_pi_base_cases():
    assert pi_coefficient((1,)) == 1
    assert pi_coefficient((1, 2)) == 1
    assert pi_coefficient((2, 1)) == -1


def test_pi_published_values():
    assert pi_coefficient((2, 1, 3)) == 0
    assert pi_coefficient((4, 3, 2, 1)) == -1
    for p, s in ORDER4_SIGNS.items():
        assert pi_coefficient(p) == s


def test_pi_table_order3():
    t = pi_table(3)
    assert len(t) == 6
    assert t.nonzero == {
        (1, 2, 3): 1,
        (1, 3, 2): -1,
        (2, 3, 1): -1,
        (3, 2, 1): 1,
    }


def test_pi_table_order4_matches_formula():
    t = pi_table(4)
    assert len(t) == 24
    assert t.nonzero == ORDER4_SIGNS


@pytest.mark.parametrize("ell", range(1, 8))
def test_support_size_and_structure(ell):
    sup = pi_support(ell)
    assert len(sup) == 2 ** (ell - 1)
    assert len({p for p, _ in sup}) == len(sup)
    for p, s in sup:
        assert s in (-1, 1)
        assert pi_coefficient(p) == s
        if ell > 1:
            assert p[0] == 1 or p[-1] == 1


@pytest.mark.parametrize("ell", range(1, 8))
def test_reversal_law(ell):
    for p in permutations(range(1, ell + 1)):
        assert pi_coefficient(p) == (-1) ** (ell + 1) * pi_coefficient(p[::-1])


def test_apply_perm():
    assert apply_perm((2, 1), (1, 3)) == (3, 1)
    assert apply_perm((1, 2, 3), (5, 6, 7)) == (5, 6, 7)
    assert apply_perm((2, 3, 1), (1, 2, 3)) == (2, 3, 1)
    with pytest.raises(ValueError):
        apply_perm((1, 2), (1, 2, 3))


def test_validation_errors():
    with pytest.raises(ValueError):
        check_perm((1, 1, 2))
    with pytest.raises(ValueError):
        check_word(())
    with pytest.raises(ValueError):
        check_word((0, 1))
    with pytest.raises(ValueError):
        check_word((1, 4), alphabet=3)
    with pytest.raises(ValueError):
        pi_coefficient(tuple(range(1, 10)))


@pytest.mark.parametrize("bad", [(1.5,), (1.0, 2), (True, 2), ("1",), (2, 1.7)])
def test_check_word_rejects_non_integer_letters(bad):
    with pytest.raises(ValueError, match="letters must be integers"):
        check_word(bad)


@pytest.mark.parametrize("bad", [(2.7, 1), (1.0, 2), (True, 1)])
def test_permutations_reject_non_integer_images(bad):
    with pytest.raises(ValueError, match="permutation images must be integers"):
        check_perm(bad)
    with pytest.raises(ValueError, match="permutation images must be integers"):
        pi_table(2)[bad]


def test_check_word_accepts_python_and_numpy_ints():
    w = check_word((np.int64(2), 1, np.int32(3)))
    assert w == (2, 1, 3) and all(type(a) is int for a in w)


def test_determinism():
    a = pi_table(5).rows()
    b = pi_table(5).rows()
    assert a == b
