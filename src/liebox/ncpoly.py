"""Noncommutative polynomials and the operator-witness triviality test.

A polynomial in m operator variables is a table word -> coefficient, words
over {1..m} of any length.  The triviality pipeline splits into components
that are homogeneous in each variable, polarizes every repeated variable
into fresh ones until each component is multilinear, and then recovers each
coefficient by letting the variables act as the shift fields x_j d/dx_{j+1}
on the witness function x_{p+1}.  A shift field sends a monomial to one
monomial times an integer, so the action runs on exponent lists; pieces are
polarized one at a time and the test stops at the first nonzero one.  All
arithmetic is exact, so a returned certificate is a proof of nontriviality.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .freelie import WordSum
from .words import as_fraction, check_integers


class NCPoly(WordSum):
    """A WordSum over the letters 1..alphabet with Fraction coefficients."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet, terms=None):
        super().__init__()
        (self.alphabet,) = check_integers((alphabet,), "alphabet")
        if self.alphabet < 0:
            raise ValueError(f"alphabet must be nonnegative, got {self.alphabet}")
        if terms:
            for w, c in terms.items() if isinstance(terms, dict) else terms:
                w = check_integers(w, "letters")
                if any(not 1 <= a <= self.alphabet for a in w):
                    raise ValueError(f"word {w} outside alphabet 1..{self.alphabet}")
                self._add(w, c)

    def _add(self, w, c):
        super()._add(w, as_fraction(c))

    def _like(self, other):
        """An empty NCPoly whose alphabet covers both operands."""
        if isinstance(other, NCPoly):
            letters = other.alphabet
        else:  # a plain WordSum
            letters = max((a for w in other.terms for a in w), default=0)
        return NCPoly(max(self.alphabet, letters))

    @classmethod
    def from_wordsum(cls, s, alphabet):
        return cls(alphabet, s.terms)

    @classmethod
    def _of(cls, alphabet, terms):
        """NCPoly on checked terms: distinct words, nonzero Fractions."""
        out = cls(alphabet)
        out.terms = terms
        return out

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def signature(self, w):
        """Occurrences of each variable 1..alphabet in the word ``w``."""
        return tuple(map(w.count, range(1, self.alphabet + 1)))

    def __repr__(self):
        words = sorted(self.terms, key=lambda w: (len(w), w))
        bits = [f"{self.terms[w]}*X{''.join(map(str, w))}" for w in words]
        return f"NCPoly({' + '.join(bits) or 0})"

    @classmethod
    def from_json(cls, obj):
        return cls(obj["alphabet"], [(t["word"], t["coeff"]) for t in obj["terms"]])


def homogeneous_split(P):
    """Split into components homogeneous of fixed degree in every variable.

    Returns (signature, component) pairs sorted by signature; the sum of the
    components reproduces P.
    """
    buckets = {}
    for w, c in P.terms.items():
        buckets.setdefault(P.signature(w), {})[w] = c
    return [(sig, NCPoly._of(P.alphabet, ws)) for sig, ws in sorted(buckets.items())]


def multilinearize(P, var):
    """Polarize one variable: substitute var -> U + T and keep mixed terms.

    ``var`` keeps the role of U; a fresh variable (index alphabet+1) is T.
    Requires degree >= 2 in ``var`` on every term (P homogeneous in var).
    """
    degs = {P.signature(w)[var - 1] for w in P.terms}
    if len(degs) != 1 or min(degs, default=0) < 2:
        raise ValueError(f"need uniform degree >= 2 in variable {var}")
    new = P.alphabet + 1
    out = NCPoly(new)
    for w, c in P.terms.items():
        positions = [i for i, a in enumerate(w) if a == var]
        d = len(positions)
        for mask in range(1, 2**d - 1):  # proper nonempty subsets: mixed only
            nw = list(w)
            for bit, pos in enumerate(positions):
                if (mask >> bit) & 1:
                    nw[pos] = new
            out._add(tuple(nw), c)
    return out


@dataclass
class MultilinearPiece:
    """One fully polarized descendant of the input polynomial.

    ``poly`` is multilinear over variables 1..p after relabeling;
    ``origin`` maps each relabeled variable (1-based) to the original letter
    it descends from, so a word in the piece collapses back to a word of the
    original polynomial.
    """

    poly: NCPoly
    origin: tuple
    source_signature: tuple

    def collapse(self, word):
        return tuple(self.origin[a - 1] for a in word)


def _relabel_multilinear(P, origin, source_sig):
    support = sorted({a for w in P.terms for a in w})
    rename = {old: i + 1 for i, old in enumerate(support)}
    out = {tuple(rename[a] for a in w): c for w, c in P.terms.items()}
    new_origin = tuple(origin[old - 1] for old in support)
    return MultilinearPiece(NCPoly._of(len(support), out), new_origin, source_sig)


def full_multilinearization(P):
    """Yield the multilinear descendants of P one at a time, deterministically
    ordered: a component is polarized only when the queue reaches it."""
    letters = tuple(range(1, P.alphabet + 1))
    queue = [(comp, letters, sig) for sig, comp in homogeneous_split(P)]
    while queue:
        comp, origin, src = queue.pop(0)
        sig = comp.signature(next(iter(comp.terms)))
        var = next((v + 1 for v, d in enumerate(sig) if d >= 2), None)
        if var is None:
            yield _relabel_multilinear(comp, origin, src)
            continue
        new_origin = origin + (origin[var - 1],)
        for _, sub in homogeneous_split(multilinearize(comp, var)):
            queue.append((sub, new_origin, src))


def witness_coefficients(Q):
    """Recover the coefficient of every permutation word by operator action.

    ``Q`` must be multilinear in variables 1..p.  For each permutation s the
    variable s_j is assigned the field x_j d/dx_{j+1} on polynomials in p+1
    variables; applying Q to x_{p+1} then leaves B(s) * x_1.  A field maps a
    monomial (exponent list e, integer factor k) to one monomial: k times the
    exponent of x_{j+1}, which moves one unit to x_j.  This is the
    independent route: it never reads the coefficient table of the claimed
    permutation directly.
    """
    p = Q.degree()
    for w in Q.terms:
        if len(w) != p or sorted(w) != list(range(1, p + 1)):
            raise ValueError(f"not multilinear in 1..{p}: word {w}")
    x1 = (1,) + (0,) * p
    out = {}
    for sigma in permutations(range(1, p + 1)):
        pos = {v: j for j, v in enumerate(sigma)}  # v -> 0-based j with sigma_j = v
        total = {}
        for w, c in Q.terms.items():
            e, k = [0] * p + [1], 1  # x_{p+1}
            for v in reversed(w):
                j = pos[v]
                k *= e[j + 1]  # x_j * d/dx_{j+1}
                if not k:
                    break
                e[j + 1] -= 1
                e[j] += 1
            if k:
                mono = tuple(e)
                total[mono] = total.get(mono, 0) + k * c
        value = total.pop(x1, 0)
        if any(total.values()):
            raise AssertionError("witness action left unexpected monomials")
        if value:
            out[sigma] = value
    return out


@dataclass
class TrivialityCertificate:
    """Witness of nontriviality: one recovered nonzero coefficient."""

    sigma: tuple
    value: Fraction
    collapsed_word: tuple
    source_signature: tuple


def is_trivial(P):
    """Full pipeline check; (True, None) or (False, certificate)."""
    for piece in full_multilinearization(P):
        coeffs = witness_coefficients(piece.poly)
        if coeffs:
            sigma = min(coeffs)
            return False, TrivialityCertificate(
                sigma, coeffs[sigma], piece.collapse(sigma), piece.source_signature)
    return True, None
