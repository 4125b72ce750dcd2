"""Words, permutations and the sign coefficients driving commutator expansions.

A word is a tuple of letters from ``{1..m}``; a permutation of ``{1..l}`` is a
tuple of 1-based images ``p`` acting on words by ``apply_perm(p, w)[j] =
w[p[j]-1]``.  The coefficient ``pi(p)`` is defined by the recursion that keeps
a permutation only when it fixes the first or the last position at every
level, with a sign flip whenever the last position is the fixed one.
``SparseSum`` is the exact term table under ``Poly``, ``WordSum`` and
``NCPoly``.
"""

import numbers
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

# Longest permutation order (word length) the expansions accept.
MAX_ORDER = 8


class SparseSum:
    """Exact sparse sum: ``terms`` maps a key tuple to a nonzero coefficient.

    Subclasses supply ``_like(other)``, an empty sum of their own kind fit to
    hold a result with ``other``, and ``_key_product(a, b)``, the key of the
    product of two terms.
    """

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}

    def _add(self, key, c):
        """Add ``c`` to the coefficient of ``key``; a coefficient of 0 is dropped."""
        c = self.terms.get(key, 0) + c
        if c == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def __add__(self, other):
        out = self._like(other)
        out.terms = dict(self.terms)
        for k, c in other.terms.items():
            out._add(k, c)
        return out

    def __neg__(self):
        out = self._like(self)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + -other

    def scale(self, c):
        out = self._like(self)
        if c != 0:
            out.terms = {k: c * v for k, v in self.terms.items()}
        return out

    def _product(self, other):
        out = self._like(other)
        add, key = out._add, self._key_product
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                add(key(ka, kb), ca * cb)
        return out

    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)


def check_integers(values, what):
    """``values`` as a tuple of ints; bools, floats and other non-integers raise."""
    values = tuple(values)
    if {*map(type, values)} <= {int}:  # the common case, checked in C
        return values
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return tuple(map(int, values))


def check_word(w, alphabet=None):
    """Validate a word; returns it as a tuple of ints."""
    w = check_integers(w, "letters")
    if not w:
        raise ValueError("word must be nonempty")
    if any(a < 1 for a in w):
        raise ValueError(f"letters must be >= 1, got {w}")
    if alphabet is not None and any(a > alphabet for a in w):
        raise ValueError(f"letter out of alphabet range 1..{alphabet}: {w}")
    return w


def check_perm(p):
    """Validate a permutation given as a tuple of 1-based images."""
    p = check_integers(p, "permutation images")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def apply_perm(p, w):
    """Apply permutation ``p`` to word ``w``: result j-th letter is w[p_j - 1]."""
    if len(p) != len(w):
        raise ValueError(f"length mismatch: |perm|={len(p)}, |word|={len(w)}")
    return tuple(w[i - 1] for i in p)


def pi_coefficient(sigma):
    """Coefficient in {-1, 0, +1} of the permutation ``sigma``.

    Recursion on the order l: value 1 at l=1; for l > 1 the permutation must
    fix position 1 (sign kept) or position l (sign flipped), and recurses on
    the remaining positions; every other permutation gets 0.  ``sigma`` is
    validated before the cached lookup: (1.0, 2) hashes like (1, 2) and would
    otherwise be answered from the cache.
    """
    return _pi_coefficient(check_perm(sigma))


@lru_cache(maxsize=None)
def _pi_coefficient(sigma):
    ell = len(sigma)
    if not 1 <= ell <= MAX_ORDER:
        raise ValueError(f"order {ell} outside 1..{MAX_ORDER}")
    if ell == 1:
        return 1
    if sigma[0] == 1:
        return _pi_coefficient(tuple(a - 1 for a in sigma[1:]))
    if sigma[-1] == 1:
        return -_pi_coefficient(tuple(a - 1 for a in sigma[:-1]))
    return 0


# perfbench reports the hit ratio of the cached recursion under this name
pi_coefficient.cache_info = _pi_coefficient.cache_info


@lru_cache(maxsize=None)
def pi_support(ell):
    """All permutations with nonzero coefficient, as ``((perm, sign), ...)``.

    Built by the same recursion instead of scanning all l! permutations, so
    the result has exactly 2**(l-1) entries.  Order is fixed by the recursion
    (first-position branch before last-position branch), deterministically.
    """
    if not 1 <= ell <= MAX_ORDER:
        raise ValueError(f"order {ell} outside 1..{MAX_ORDER}")
    if ell == 1:
        return (((1,), 1),)
    out = []
    for p, s in pi_support(ell - 1):
        shifted = tuple(a + 1 for a in p)
        out.append(((1,) + shifted, s))
        out.append((shifted + (1,), -s))
    return tuple(out)


class PiTable:
    """Complete coefficient table for one order, in lexicographic perm order."""

    def __init__(self, ell):
        support = dict(pi_support(ell))  # raises ValueError outside 1..MAX_ORDER
        self.order = ell
        self.entries = {
            p: support.get(p, 0) for p in permutations(range(1, ell + 1))
        }

    @property
    def nonzero(self):
        return {p: v for p, v in self.entries.items() if v != 0}

    def __getitem__(self, perm):
        return self.entries[check_perm(perm)]

    def __len__(self):
        return len(self.entries)

    def rows(self):
        """(permutation string, coefficient) rows for report emission."""
        return [
            ("".join(str(a) for a in p), v) for p, v in self.entries.items()
        ]


def pi_table(ell):
    return PiTable(ell)


def as_fraction(x):
    """Parse exact rational input: Fraction, int (not bool), or 'a/b' string.

    A malformed string, a zero denominator included, raises ``ValueError``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def rational_point(x):
    """Exact coordinates of a point: ints and Fractions as they are, floats
    rounded to the nearest rational of denominator at most 10**12."""
    return [
        Fraction(v) if isinstance(v, numbers.Rational)
        else Fraction(v).limit_denominator(10**12)
        for v in x
    ]
