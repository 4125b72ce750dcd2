"""Exact sub-Riemannian distance on the Heisenberg model.

The model's fields X1 = d/dx - (y/2) d/dz and X2 = d/dy + (x/2) d/dz are
left-invariant for the group law
(x,y,z).(x',y',z') = (x+x', y+y', z+z'+(xy'-yx')/2), so d(a, b) = d(0, a^-1 b).
From the origin to (x, y, z) with r = |(x, y)| > 0 the minimizing geodesic
turns through phi in [0, 2 pi), the root of the monotone equation
(phi - sin phi) / (8 sin^2(phi/2)) = |z| / r^2, and has length
r (phi/2) / sin(phi/2); on the z-axis the length is sqrt(4 pi |z|).
Reference: Agrachev, Barilari, Boscain, A Comprehensive Introduction to
Sub-Riemannian Geometry (CUP 2019).
"""

import math


def _phase(ratio):
    """Root phi in [0, 2 pi) of (phi - sin phi) / (8 sin^2(phi/2)) = ratio."""
    lo, hi = 0.0, 2.0 * math.pi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (mid - math.sin(mid)) / (8.0 * math.sin(0.5 * mid) ** 2) < ratio:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def heisenberg_distance(a, b):
    """Carnot-Caratheodory distance between two points of the model."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    dz = b[2] - a[2] - 0.5 * (a[0] * b[1] - a[1] * b[0])
    r = math.hypot(dx, dy)
    if r == 0.0:
        return math.sqrt(4.0 * math.pi * abs(dz))
    if dz == 0.0:
        return r
    phi = _phase(abs(dz) / (r * r))
    return r * (0.5 * phi) / math.sin(0.5 * phi)


def self_test():
    """Failures of the oracle against its closed forms; empty when sound."""
    bad = []
    for z in (1e-4, 0.01, 0.3, -2.0):
        got = heisenberg_distance((0.0, 0.0, 0.0), (0.0, 0.0, z))
        if abs(got - math.sqrt(4 * math.pi * abs(z))) > 1e-12:
            bad.append(f"axis z={z}: {got}")
        # continuity onto the axis from a nearly vertical target
        near = heisenberg_distance((0.0, 0.0, 0.0), (1e-9, 0.0, z))
        if abs(near - got) > 1e-6 * got:
            bad.append(f"near-axis z={z}: {near} vs {got}")
    for x, y in ((0.1, 0.0), (0.3, -0.4), (-1.0, 2.0)):
        got = heisenberg_distance((0.0, 0.0, 0.0), (x, y, 0.0))
        if abs(got - math.hypot(x, y)) > 1e-12:
            bad.append(f"plane ({x},{y}): {got}")
    # left invariance: translating both ends by the same point keeps d
    a, b, g = (0.1, -0.2, 0.05), (-0.15, 0.1, 0.2), (0.3, 0.7, -0.4)
    d0 = heisenberg_distance(a, b)
    d1 = heisenberg_distance(left_translate(g, a), left_translate(g, b))
    if abs(d0 - d1) > 1e-12:
        bad.append(f"left invariance: {d0} vs {d1}")
    return bad


def left_translate(p, q):
    """Group product p.q; the flow of u1 X1 + u2 X2 for time t from p is
    p.(t u1, t u2, 0)."""
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + 0.5 * (p[0] * q[1] - p[1] * q[0]))


def certificate_endpoint(x, cert):
    """Exact endpoint of a distance certificate's path started at x.

    Arc legs are (signed letter, time >= 0); control certificates hold one
    constant (u1, u2) per equal-length segment of the unit interval.
    """
    p = tuple(float(v) for v in x)
    if cert["form"] == "legs":
        for j, t in cert["legs"]:
            s = t if j > 0 else -t
            p = left_translate(p, (s, 0.0, 0.0) if abs(j) == 1 else (0.0, s, 0.0))
    else:
        k = len(cert["controls"])
        for u1, u2 in cert["controls"]:
            p = left_translate(p, (u1 / k, u2 / k, 0.0))
    return p
