"""Noncommutative polynomials and the operator-witness triviality test.

A polynomial in m operator variables is a table word -> coefficient, words
over {1..m} of any length.  The triviality pipeline splits into components
that are homogeneous in each variable, polarizes every repeated variable
into fresh ones until each component is multilinear, and then recovers each
coefficient by letting the variables act as the shift fields x_j d/dx_{j+1}
on the witness function x_{p+1}.  All arithmetic is exact, so a returned
certificate is a proof of nontriviality.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .freelie import WordSum
from .poly import Poly
from .words import as_fraction


class NCPoly(WordSum):
    """A WordSum over the letters 1..alphabet with Fraction coefficients."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet, terms=None):
        super().__init__()
        self.alphabet = int(alphabet)
        if terms:
            for w, c in terms.items() if isinstance(terms, dict) else terms:
                w = tuple(int(a) for a in w)
                if any(not 1 <= a <= self.alphabet for a in w):
                    raise ValueError(f"word {w} outside alphabet 1..{self.alphabet}")
                self._add(w, as_fraction(c))

    @classmethod
    def from_wordsum(cls, s, alphabet):
        return cls(alphabet, s.terms)

    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def signature(self, w):
        """Occurrences of each variable 1..alphabet in the word ``w``."""
        sig = [0] * self.alphabet
        for a in w:
            sig[a - 1] += 1
        return tuple(sig)

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = [
            f"{c}*X{''.join(map(str, w))}"
            for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
        return "NCPoly(" + " + ".join(bits) + ")"

    def to_json(self):
        return {
            "degree": self.degree(),
            "alphabet": self.alphabet,
            "terms": [
                {"word": list(w), "coeff": str(c)}
                for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
            ],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            obj["alphabet"],
            [(t["word"], Fraction(t["coeff"])) for t in obj["terms"]],
        )


def homogeneous_split(P):
    """Split into components homogeneous of fixed degree in every variable.

    Returns (signature, component) pairs sorted by signature; the sum of the
    components reproduces P.
    """
    buckets = {}
    for w, c in P.terms.items():
        sig = P.signature(w)
        buckets.setdefault(sig, []).append((w, c))
    return [
        (sig, NCPoly(P.alphabet, dict(buckets[sig]))) for sig in sorted(buckets)
    ]


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
    out = NCPoly(len(support))
    for w, c in P.terms.items():
        out.terms[tuple(rename[a] for a in w)] = c
    new_origin = tuple(origin[old - 1] for old in support)
    return MultilinearPiece(out, new_origin, source_sig)


def full_multilinearization(P):
    """All multilinear descendants of P, deterministically ordered."""
    pieces = []
    stack = [
        (comp, tuple(range(1, P.alphabet + 1)), sig)
        for sig, comp in homogeneous_split(P)
    ]
    while stack:
        comp, origin, src = stack.pop(0)
        sig = comp.signature(next(iter(comp.terms)))
        heavy = [v + 1 for v, d in enumerate(sig) if d >= 2]
        if not heavy:
            pieces.append(_relabel_multilinear(comp, origin, src))
            continue
        var = heavy[0]
        polarized = multilinearize(comp, var)
        new_origin = origin + (origin[var - 1],)
        for _, sub in homogeneous_split(polarized):
            stack.append((sub, new_origin, src))
    return pieces


def witness_coefficients(Q):
    """Recover the coefficient of every permutation word by operator action.

    ``Q`` must be multilinear in variables 1..p.  For each permutation s the
    variable s_j is assigned the field x_j d/dx_{j+1} on polynomials in p+1
    variables; applying Q to x_{p+1} then leaves B(s) * x_1.  This is the
    independent route: it never reads the coefficient table of the claimed
    permutation directly.
    """
    if Q.is_zero():
        return {}
    p = Q.degree()
    for w in Q.terms:
        if len(w) != p or sorted(w) != list(range(1, p + 1)):
            raise ValueError(f"not multilinear in 1..{p}: word {w}")
    nv = p + 1
    psi = Poly.var(nv, p)  # x_{p+1}, zero-based index p
    x1 = (1,) + (0,) * (p - 1) + (0,)
    out = {}
    for sigma in permutations(range(1, p + 1)):
        pos = {v: j + 1 for j, v in enumerate(sigma)}  # v -> j with sigma_j = v
        total = Poly.zero(nv)
        for w, c in Q.terms.items():
            cur = psi
            for v in reversed(w):
                j = pos[v]
                cur = Poly.var(nv, j - 1) * cur.diff(j)  # x_j * d/dx_{j+1}
                if cur.is_zero():
                    break
            if not cur.is_zero():
                total = total + cur.scale(c)
        if total.is_zero():
            value = Fraction(0)
        else:
            value = total.terms.get(x1, Fraction(0))
            if dict(total.terms) != {x1: value}:
                raise AssertionError("witness action left unexpected monomials")
        if value != 0:
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
                sigma=sigma,
                value=coeffs[sigma],
                collapsed_word=piece.collapse(sigma),
                source_signature=piece.source_signature,
            )
    return True, None
