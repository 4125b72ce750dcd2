"""Exact expansion of nested commutators in the free associative algebra.

Everything here is exact: coefficients are ints or Fractions, words are
tuples.  Identity checks return the residual combination (a WordSum) rather
than a boolean; callers assert that the residual is zero, and on failure the
surviving terms say exactly what went wrong.  Every residual that is a
linear combination of nested commutators is accumulated in place by
``nested_sum``.
"""

from fractions import Fraction
from itertools import combinations
from operator import add

from .words import SparseSum, apply_perm, check_integers, check_word, pi_support


class WordSum(SparseSum):
    """Formal linear combination of words with exact coefficients."""

    __slots__ = ()

    def _like(self, other):
        return WordSum()

    _key_product = staticmethod(add)  # concatenation

    @classmethod
    def single(cls, w, c=1):
        s = cls()
        if c != 0:
            s.terms[check_word(w)] = c
        return s

    # concatenation product of the free associative algebra
    concat = SparseSum._product

    def __eq__(self, other):
        return isinstance(other, WordSum) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "WordSum(0)"
        bits = []
        for w in sorted(self.terms, key=lambda u: (len(u), u)):
            bits.append(f"{self.terms[w]}*{''.join(map(str, w))}")
        return "WordSum(" + " + ".join(bits) + ")"


def nested_sum(pairs):
    """Sum of c * expand_nested(w) over ``(w, c)`` pairs, in one WordSum.

    Each right-nested commutator expands to the signed sum over the
    2**(l-1) permutations with nonzero coefficient; the terms of all pairs
    are added in place, so equal words cancel as they arrive.
    """
    out = WordSum()
    for w, c in pairs:
        w = check_word(w)
        for p, s in pi_support(len(w)):
            out._add(apply_perm(p, w), s * c)
    return out


def expand_nested(w):
    """Associative expansion of the right-nested commutator of the word ``w``.

    Every coefficient is +-1, one per permutation with nonzero coefficient.
    """
    return nested_sum([(w, 1)])


def as_wordsum(x):
    if isinstance(x, WordSum):
        return x
    if isinstance(x, int):
        return WordSum.single((x,))
    return expand_nested(check_word(x))


def assoc_bracket(a, b):
    """Commutator a*b - b*a under the concatenation product."""
    a, b = as_wordsum(a), as_wordsum(b)
    return a.concat(b) - b.concat(a)


def check_jacobi(u, v, w):
    """Cyclic Jacobi sum for nested commutators of three words; expected 0."""
    xu, xv, xw = (as_wordsum(check_word(x)) for x in (u, v, w))
    return (
        assoc_bracket(xu, assoc_bracket(xv, xw))
        + assoc_bracket(xv, assoc_bracket(xw, xu))
        + assoc_bracket(xw, assoc_bracket(xu, xv))
    )


def check_generalized_jacobi(v, w):
    """Residual of the bracket-recombination identity for words v, w.

    The bracket of the two nested commutators must equal the signed sum of
    nested commutators of the permuted-v words with w appended.  Returns
    LHS - RHS.
    """
    v, w = check_word(v), check_word(w)
    lhs = assoc_bracket(expand_nested(v), expand_nested(w))
    return lhs - nested_sum((apply_perm(p, v) + w, s) for p, s in pi_support(len(v)))


def check_J2(v):
    """Residual of the self-recombination identity with the 1/l factor."""
    v = check_word(v)
    ell = len(v)
    if ell < 2:
        raise ValueError("need |v| >= 2")
    acc = nested_sum([(v, ell)] + [(apply_perm(p, v), -s) for p, s in pi_support(ell)])
    return acc.scale(Fraction(1, ell))


class FResult:
    """Residual of one double-sum instance plus the expected-outcome flag."""

    def __init__(self, residual, known_failure):
        self.residual = residual
        self.known_failure = known_failure


def check_F(ell, p, b, w=()):
    """Double sum over permutations and index subsets; zero for p < l.

    The permuted word is v = 1 2 .. l.  ``b`` lists the exponents
    (b_1..b_p), each >= 0 with sum >= 1; exponent b_k repeats the letter at
    the k-th chosen position, blocks concatenated from the p-th choice down
    to the first, then ``w``.  The case p = l is the documented failure: the
    residual is returned flagged, not asserted.
    """
    v = check_word(range(1, ell + 1))
    w = tuple(w) if w else ()
    b = check_integers(b, "exponents")
    if len(b) != p or any(x < 0 for x in b) or sum(b) < 1:
        raise ValueError(f"bad exponent tuple {b} for p={p}")
    if not 1 <= p <= ell:
        raise ValueError(f"p={p} outside 1..{ell}")

    def terms():
        for perm, s in pi_support(ell):
            pv = apply_perm(perm, v)
            for idx in combinations(range(ell), p):
                word = ()
                for k in range(p - 1, -1, -1):
                    word += (pv[idx[k]],) * b[k]
                yield word + w, s

    return FResult(nested_sum(terms()), known_failure=(p == ell))


def signed_expansion(v):
    """Left/right-placement form of the nested-commutator expansion.

    Each sign vector k in {-1,+1}^(l-1) builds one word: start from the last
    letter, then prepend letter j for k_j = +1 and append it for k_j = -1,
    scanning j from l-1 down to 1.  The term's sign is (-1)**#{j: k_j = -1};
    the literal exponent sum k_1+...+k_(l-1) has constant parity and cannot
    carry the sign, see the module tests for the equality with
    ``expand_nested`` that pins this reading down.
    """
    v = check_word(v)
    ell = len(v)
    out = WordSum()
    for mask in range(2 ** (ell - 1)):
        word = (v[-1],)
        negs = 0
        for j in range(ell - 2, -1, -1):
            if (mask >> j) & 1:
                negs += 1
                word = word + (v[j],)
            else:
                word = (v[j],) + word
        out._add(word, (-1) ** negs)
    return out


def check_giochetto(v, w):
    """Residual of the prepended-letter recombination; expected zero.

    ``v`` has length n+1 and ``w`` is a single letter; the check adds to the
    nested commutator of w.v the nested commutators of u.w over the words u
    of ``signed_expansion(v)``, equal words collected with their signs.
    """
    v = check_word(v)
    w = check_word(w)
    if len(w) != 1:
        raise ValueError("w must be a single letter")
    placed = signed_expansion(v).terms.items()
    return nested_sum([(w + v, 1)] + [(u + w, c) for u, c in placed])


def check_baker():
    """Exact checks of the classical order-4 and order-6 bracket identities.

    Alphabet {1, 2} with a = 1, b = 2.  Returns a dict of named residuals,
    all expected zero.
    """
    a, b = 1, 2
    combos = {
        "order4_swap": {(1, 2, 1, 2): 1, (2, 1, 1, 2): -1},
        "order4_antisym": {(1, 2, 1, 2): 1, (1, 2, 2, 1): 1},
        "order4_reversal": {(1, 2, 1, 2): 2, (2, 1, 2, 1): 2},
        "order6_intermediate": {(b, b, b, a, b, a): 1, (b, b, a, b, b, a): -1},
        "order6_baker": {(a, b, b, b, b, a): 1, (b, a, b, b, b, a): -2, (b, b, a, b, b, a): 1},
    }
    return {name: nested_sum(c.items()) for name, c in combos.items()}
