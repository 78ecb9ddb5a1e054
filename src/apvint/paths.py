"""Piecewise line/arc integration paths in the complex plane.

A path is geometry only: line and arc segments joined end to end, from a to b
on the real axis, avoiding the interior pole x0. Which side of x0 it passes is
read from the turn of arg(z - x0) along it, summed segment by segment in
closed form: a path from a to b turns by -pi about x0 when it passes above and
by +pi when it passes below. The same turn, closed by the straight return from
b to a, gives the winding number of the loop about any other point, such as a
declared pole of f that the path must not cut off.

By the residue theorem these winding numbers are all that fix a contour
integral's value, so a path may cross itself: crossing points change neither.
The semicircle constructor builds its path above x0; the same path below is
its mirror image across the real axis, ComplexPath.conjugate().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import AnalyticityDecl, Expr

__all__ = [
    "IntegralSpec",
    "Line",
    "Arc",
    "ComplexPath",
    "semicircle_path",
    "classify_side",
    "path_to_dict",
    "path_from_dict",
    "MIN_CLEARANCE_FACTOR",
]

JOIN_TOL = 1e-12
ANGLE_TOL = 1e-12  # slack, in radians, when testing whether an arc spans an angle

# Minimum pole clearance, as a fraction of (b - a). Purely a conditioning
# floor for the quadrature, not a restriction of the underlying theory.
MIN_CLEARANCE_FACTOR = 1e-6


@dataclass(frozen=True)
class IntegralSpec:
    """The full problem statement: integrate f(x) / (x - x0)^(n+1) over [a, b].

    A declared pole on [a, b] is refused: that integral has no value.
    """

    f: Expr
    a: float
    b: float
    x0: float
    n: int
    decl: AnalyticityDecl = field(default_factory=lambda: AnalyticityDecl(entire=True))

    def __post_init__(self):
        if not (self.a < self.x0 < self.b):
            raise ValueError(f"need a < x0 < b, got a={self.a}, x0={self.x0}, b={self.b}")
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"n must be a nonnegative integer, got {self.n}")
        for p in self.decl.declared_poles:
            if p.imag == 0 and self.a <= p.real <= self.b:
                raise ValueError(f"declared pole {p} lies on [a, b] = [{self.a}, {self.b}]")

    @property
    def pole_gap(self) -> float:
        """Distance from x0 to the nearest interval endpoint."""
        return min(self.x0 - self.a, self.b - self.x0)

    @property
    def pole_distance(self) -> float:
        """Distance from x0 to the nearest declared pole, inf when there is none."""
        return min((abs(p - self.x0) for p in self.decl.declared_poles), default=math.inf)


@dataclass(frozen=True)
class Line:
    start: complex
    end: complex

    def point(self, t):
        """Position at parameter t in [0, 1]."""
        return self.start + (self.end - self.start) * np.asarray(t)

    def derivative(self, t):
        return np.full_like(np.asarray(t, dtype=np.complex128), self.end - self.start)

    @property
    def first(self):
        return self.start

    @property
    def last(self):
        return self.end

    @property
    def param_interval(self):
        return (0.0, 1.0)

    def reversed(self):
        return Line(self.end, self.start)

    def conjugate(self):
        return Line(self.start.conjugate(), self.end.conjugate())

    def turn(self, p: complex) -> float:
        """Exact change of arg(z - p) along the line; p must lie off it."""
        return _principal_angle(self.start, self.end, p)

    def min_distance_to(self, p: complex) -> float:
        d = self.end - self.start
        L2 = abs(d) ** 2
        if L2 == 0.0:
            return abs(p - self.start)
        t = ((p - self.start).real * d.real + (p - self.start).imag * d.imag) / L2
        t = min(max(t, 0.0), 1.0)
        return abs(p - (self.start + t * d))


@dataclass(frozen=True)
class Arc:
    center: complex
    radius: float
    theta_start: float
    theta_end: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("arc radius must be positive")
        if abs(self.theta_end - self.theta_start) > 2 * math.pi + 1e-9:
            raise ValueError("arc sweep exceeds a full turn")

    def point(self, theta):
        return self.center + self.radius * np.exp(1j * np.asarray(theta))

    def derivative(self, theta):
        return 1j * self.radius * np.exp(1j * np.asarray(theta))

    @property
    def first(self):
        return self.center + self.radius * np.exp(1j * self.theta_start)

    @property
    def last(self):
        return self.center + self.radius * np.exp(1j * self.theta_end)

    @property
    def param_interval(self):
        return (self.theta_start, self.theta_end)

    def reversed(self):
        return Arc(self.center, self.radius, self.theta_end, self.theta_start)

    def conjugate(self):
        return Arc(self.center.conjugate(), self.radius, -self.theta_start, -self.theta_end)

    def turn(self, p: complex) -> float:
        """Exact change of arg(z - p) along the arc; p must lie off it.

        Seen from outside its circle (or from the circle itself) an arc spans
        less than pi, so the principal angle is the turn. Seen from inside,
        arg(z - p) turns with the arc by between |sweep|/2 and pi + |sweep|/2,
        which fixes the multiple of 2*pi, also for full and empty sweeps.
        """
        angle = _principal_angle(self.first, self.last, p)
        if abs(p - self.center) >= self.radius:
            return angle
        sweep = self.theta_end - self.theta_start
        sign = -1.0 if sweep < 0 else 1.0
        lo = abs(sweep) / 2 - math.pi / 2
        return sign * (lo + (sign * angle - lo) % (2 * math.pi))

    def contains_angle(self, theta: float) -> bool:
        lo, hi = sorted((self.theta_start, self.theta_end))
        # normalize theta into [lo - 2pi, hi + 2pi] window
        while theta < lo - ANGLE_TOL:
            theta += 2 * math.pi
        while theta > hi + ANGLE_TOL:
            theta -= 2 * math.pi
        return lo - ANGLE_TOL <= theta <= hi + ANGLE_TOL

    def min_distance_to(self, p: complex) -> float:
        v = p - self.center
        r = abs(v)
        theta = math.atan2(v.imag, v.real)
        if self.contains_angle(theta):
            return abs(r - self.radius)
        return min(abs(p - self.first), abs(p - self.last))


Segment = Line | Arc


def _principal_angle(first: complex, last: complex, p: complex) -> float:
    w = (complex(last) - p) / (complex(first) - p)
    return math.atan2(w.imag, w.real)


@dataclass(frozen=True)
class ComplexPath:
    """Ordered, continuously joined line/arc segments from a to b; immutable."""

    segments: tuple

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("path needs at least one segment")
        scale = max(1.0, max(abs(s.first) + abs(s.last) for s in segs))
        for prev, nxt in zip(segs, segs[1:]):
            if abs(complex(prev.last) - complex(nxt.first)) > JOIN_TOL * scale:
                raise ValueError(f"segments do not join continuously: {prev.last} vs {nxt.first}")
        object.__setattr__(self, "segments", segs)

    @property
    def start(self) -> complex:
        return complex(self.segments[0].first)

    @property
    def end(self) -> complex:
        return complex(self.segments[-1].last)

    def min_distance_to(self, p: complex) -> float:
        return min(seg.min_distance_to(p) for seg in self.segments)

    def reversed(self) -> "ComplexPath":
        return ComplexPath(tuple(s.reversed() for s in reversed(self.segments)))

    def conjugate(self) -> "ComplexPath":
        """Mirror image across the real axis, on the opposite side."""
        return ComplexPath(tuple(s.conjugate() for s in self.segments))

    def turn(self, p: complex) -> float:
        """Exact change of arg(z - p) along the path; p must lie off it."""
        return sum(seg.turn(complex(p)) for seg in self.segments)


# ---------------------------------------------------------------------------
# Constructors


def semicircle_path(spec: IntegralSpec, radius: float) -> ComplexPath:
    """Real segments joined by a semicircle of the given radius above x0.

    The radius may reach the pole gap, where the semicircle bulges to an
    endpoint and the real piece on that side, of zero length, is dropped.
    """
    gap = spec.pole_gap
    if not (0 < radius <= gap):
        raise ValueError(f"radius must lie in (0, {gap}], got {radius}")
    _check_clearance(spec, radius)
    segments = []
    if spec.x0 - radius > spec.a:
        segments.append(Line(complex(spec.a), complex(spec.x0 - radius)))
    segments.append(Arc(complex(spec.x0), radius, math.pi, 0.0))
    if spec.x0 + radius < spec.b:
        segments.append(Line(complex(spec.x0 + radius), complex(spec.b)))
    return ComplexPath(tuple(segments))


def _check_clearance(spec: IntegralSpec, closest: float):
    floor = MIN_CLEARANCE_FACTOR * (spec.b - spec.a)
    if closest < floor:
        raise ValueError(f"path clearance {closest} below conditioning floor {floor}")


# ---------------------------------------------------------------------------
# Side classification


def classify_side(path: ComplexPath, x0: float) -> str:
    """Return 'above', 'below' or 'invalid' for a path with real endpoints.

    A path from a to b turns by -pi about x0 when it passes above and by +pi
    when it passes below; any other turn, a path through x0 or an endpoint off
    the real axis is invalid. The winding about x0 is the whole rule: a path
    that crosses itself has the side its turn says.
    """
    a, b = path.start, path.end
    if abs(a.imag) > 1e-9 or abs(b.imag) > 1e-9:
        return "invalid"
    if path.min_distance_to(complex(x0)) <= 0.0:
        return "invalid"
    return {-1: "above", 1: "below"}.get(round(path.turn(x0) / math.pi), "invalid")


# ---------------------------------------------------------------------------
# JSON schema


def path_to_dict(path: ComplexPath) -> dict:
    segments = []
    for seg in path.segments:
        if isinstance(seg, Line):
            segments.append({"type": "line",
                             "from": [seg.start.real, seg.start.imag],
                             "to": [seg.end.real, seg.end.imag]})
        else:
            segments.append({"type": "arc",
                             "center": [seg.center.real, seg.center.imag],
                             "radius": seg.radius,
                             "theta_start": seg.theta_start,
                             "theta_end": seg.theta_end})
    return {"segments": segments}


def path_from_dict(data: dict) -> ComplexPath:
    """Read the segments of a path; other keys, such as an old "side", are ignored."""
    segments = []
    for seg in data["segments"]:
        if seg["type"] == "line":
            segments.append(Line(complex(*seg["from"]), complex(*seg["to"])))
        elif seg["type"] == "arc":
            segments.append(Arc(complex(*seg["center"]), float(seg["radius"]),
                                float(seg["theta_start"]), float(seg["theta_end"])))
        else:
            raise ValueError(f"unknown segment type {seg['type']!r}")
    return ComplexPath(tuple(segments))
