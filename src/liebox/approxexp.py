"""Approximate exponentials of commutators and the almost-exponential chart.

The group-commutator map composes signed generator flows; its recursion
produces, for a word of length l, a list of 2^l - 2 + 2 flow legs (1 leg at
l = 1).  The almost-exponential map chains one approximate exponential per
frame entry, with the radius folded into the leg times: a scaled commutator
r^l Y flown for parameter h uses leg times |h|^(1/l) * r over the original
generators, which is exactly the scaled-generator composition.
"""

import numpy as np

from .vfield import all_words
from .words import check_word


def c_map_legs(letters, tau):
    """Flow legs (signed letter, time), first-applied first.

    Base case is the single flow; the recursive case conjugates the shorter
    map by the first generator's flow.
    """
    letters = tuple(letters)
    if len(letters) == 1:
        return [(letters[0], tau)]
    inner = c_map_legs(letters[1:], tau)
    inv = invert_legs(inner)
    first = letters[0]
    return [(first, tau)] + inner + [(first, -tau)] + inv


def invert_legs(legs):
    return [(j, -t) for j, t in reversed(legs)]


def c_map(system, tau, letters, x):
    """Group-commutator composition of generator flows at parameter tau >= 0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    letters = check_word(letters, alphabet=system.m)
    return system.compose_flows(c_map_legs(letters, tau), x)


def exp_ap_legs(t, w):
    """Legs of the approximate exponential at (possibly negative) time t."""
    ell = len(w)
    tau = abs(t) ** (1.0 / ell)
    legs = c_map_legs(w, tau)
    return legs if t >= 0 else invert_legs(legs)


def exp_ap(system, t, w, x):
    """Approximate exponential of the nested commutator of ``w`` at time t."""
    w = check_word(w, alphabet=system.m)
    return system.compose_flows(exp_ap_legs(t, w), x)


class CommutatorFrame:
    """The commutator family of a system: words, degrees, coefficient maps."""

    def __init__(self, system):
        self.system = system
        self.words = all_words(system.m, system.s)
        self.q = len(self.words)
        self.degrees = tuple(len(w) for w in self.words)
        self.maps = tuple(system.commutator_coeffs(w) for w in self.words)

    def degree(self, j):
        return self.degrees[j - 1]

    def word(self, j):
        return self.words[j - 1]

    def map(self, j):
        return self.maps[j - 1]

    def eval_columns(self, indices, x):
        """Matrix with columns Y_{i}(x) for i in ``indices`` (floats)."""
        return np.stack([self.map(i)(x) for i in indices], axis=1)

    def check_index_tuple(self, I):
        I = tuple(int(i) for i in I)
        if len(I) != self.system.n:
            raise ValueError(f"need {self.system.n} indices, got {len(I)}")
        if any(not 1 <= i <= self.q for i in I):
            raise ValueError(f"index outside 1..{self.q}: {I}")
        return I

    def ell(self, I):
        return sum(self.degree(i) for i in I)


def box_norm(h, degrees):
    """max_k |h_k|**(1/ell_k), the anisotropic box gauge."""
    return max(abs(v) ** (1.0 / d) for v, d in zip(h, degrees))


def in_box(h, degrees, eps):
    return box_norm(h, degrees) < eps


def e_map(frame, I, x, r, h):
    """Almost-exponential chart: chained approximate exponentials (DOPRI5 legs).

    The last frame entry is applied to x first.  Scaling: entry k of degree
    l contributes legs at times |h_k|**(1/l) * r over the original
    generators, the inverse branch when h_k < 0.
    """
    I = frame.check_index_tuple(I)
    if not 0 < r <= 1:
        raise ValueError("radius must be in (0, 1]")
    y = tuple(float(v) for v in x)
    for k in range(len(I) - 1, -1, -1):
        w = frame.word(I[k])
        t_eff = h[k] * r ** len(w)
        y = exp_ap(frame.system, t_eff, w, y)
    return y


def e_map_batch(frame, I, x, r, H, steps=4):
    """Vectorized chart over H of shape (N, n).

    Legs are ``VectorFieldSystem.flow_batch``: exact for triangular fields,
    fixed-step RK4 with ``steps`` steps otherwise.
    """
    I = frame.check_index_tuple(I)
    system = frame.system
    H = np.asarray(H, dtype=float)
    Y = np.broadcast_to(np.asarray(x, dtype=float), H.shape).copy()
    for k in range(len(I) - 1, -1, -1):
        w = frame.word(I[k])
        ell = len(w)
        hk = H[:, k]
        if ell == 1:
            Y = system.flow_batch(w[0], hk * r, Y, steps=steps)
            continue
        tau = np.abs(hk) ** (1.0 / ell) * r
        for branch, legs in (
            (hk >= 0, c_map_legs(w, 1.0)),
            (hk < 0, invert_legs(c_map_legs(w, 1.0))),
        ):
            if not branch.any():
                continue
            sub = Y[branch]
            tb = tau[branch]
            for j, unit_t in legs:
                sub = system.flow_batch(j, unit_t * tb, sub, steps=steps)
            Y[branch] = sub
    return Y


def jacobian_e(frame, I, x, r, h, delta=1e-5):
    """Central-difference Jacobian of the chart at h, plus its determinant."""
    I = frame.check_index_tuple(I)
    n = frame.system.n
    h = [float(v) for v in h]
    cols = []
    for k in range(n):
        d = delta * max(1.0, abs(h[k]))
        hp, hm = list(h), list(h)
        hp[k] += d
        hm[k] -= d
        yp = np.asarray(e_map(frame, I, x, r, hp))
        ym = np.asarray(e_map(frame, I, x, r, hm))
        cols.append((yp - ym) / (2 * d))
    J = np.stack(cols, axis=1)
    return J, float(np.linalg.det(J))


def scaled_columns(frame, I, x, r):
    """Leading-order Jacobian columns r^{l_k} Y_{i_k}(x)."""
    I = frame.check_index_tuple(I)
    cols = [frame.map(i)(x) * r ** frame.degree(i) for i in I]
    return np.stack(cols, axis=1)


def exp_ap_first_order_errors(system, w, x, ts):
    """Deviations of exp_ap(t) from x + t f_w(x); slope > 1 expected."""
    fw = system.commutator_coeffs(w)
    fx = fw(x)
    errs = []
    for t in ts:
        y = np.asarray(exp_ap(system, t, w, x))
        errs.append(float(np.linalg.norm(y - np.asarray(x, dtype=float) - t * fx)))
    return errs
