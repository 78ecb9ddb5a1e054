import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvint.paths import (Arc, ComplexPath, Line, classify_side, path_from_dict,
                          path_to_dict, semicircle_path)

from conftest import make_spec


@pytest.fixture
def unit_spec():
    return make_spec("cos(z)", -1, 1, 0, 0)


class TestSemicirclePath:
    def test_above_construction(self, unit_spec):
        p = semicircle_path(unit_spec, 0.5, "above")
        assert len(p.segments) == 3
        line1, arc, line2 = p.segments
        assert (line1.start, line1.end) == (-1 + 0j, -0.5 + 0j)
        assert (arc.center, arc.radius) == (0j, 0.5)
        assert (arc.theta_start, arc.theta_end) == (math.pi, 0.0)
        assert (line2.start, line2.end) == (0.5 + 0j, 1 + 0j)

    def test_below_is_mirror_arc(self, unit_spec):
        p = semicircle_path(unit_spec, 0.5, "below")
        arc = p.segments[1]
        assert (arc.theta_start, arc.theta_end) == (-math.pi, 0.0)

    def test_eps_out_of_range(self):
        spec = make_spec("cos(z)", 0, 2, 1, 0)
        with pytest.raises(ValueError):
            semicircle_path(spec, 1.5, "above")

    def test_eps_reaching_declared_pole(self):
        spec = make_spec("1/(1+z^2)", -2, 2, 0, 0, poles=(1j, -1j))
        with pytest.raises(ValueError):
            semicircle_path(spec, 1.0, "above")

    def test_continuity_and_endpoints(self, unit_spec):
        p = semicircle_path(unit_spec, 0.25, "above")
        assert p.start == -1 + 0j
        assert p.end == 1 + 0j
        for s1, s2 in zip(p.segments, p.segments[1:]):
            assert abs(complex(s1.last) - complex(s2.first)) < 1e-12

    def test_positive_pole_clearance(self, unit_spec):
        p = semicircle_path(unit_spec, 0.3, "below")
        assert p.min_distance_to(0j) == pytest.approx(0.3)


class TestBulgePath:
    def test_unit_radius_single_arc(self, unit_spec):
        p = semicircle_path(unit_spec, 1.0, "above")
        assert len(p.segments) == 1
        arc = p.segments[0]
        assert (arc.theta_start, arc.theta_end) == (math.pi, 0.0)

    def test_below_unit_radius(self, unit_spec):
        p = semicircle_path(unit_spec, 1.0, "below")
        assert p.segments[0].theta_start == -math.pi

    def test_wide_interval_gets_line_pieces(self):
        spec = make_spec("cos(z)", -2, 2, 0, 0)
        p = semicircle_path(spec, 1.0, "above")
        assert len(p.segments) == 3
        assert isinstance(p.segments[0], Line)
        assert isinstance(p.segments[2], Line)

    def test_radius_equal_to_gap_drops_only_the_empty_piece(self):
        spec = make_spec("cos(z)", -1, 2, 0, 0)
        p = semicircle_path(spec, 1.0, "above")
        assert p.segments == (Arc(0j, 1.0, math.pi, 0.0), Line(1 + 0j, 2 + 0j))

    def test_radius_too_large(self, unit_spec):
        with pytest.raises(ValueError):
            semicircle_path(unit_spec, 1.5, "above")


class TestClassifySide:
    def test_round_trip_constructors(self, unit_spec):
        for side in ("above", "below"):
            assert classify_side(semicircle_path(unit_spec, 0.5, side), 0.0) == side
            assert classify_side(semicircle_path(unit_spec, 1.0, side), 0.0) == side

    def test_path_through_pole_invalid(self):
        p = ComplexPath((Line(-1 + 0j, 1 + 0j),))
        assert classify_side(p, 0.0) == "invalid"

    def test_self_intersecting_invalid(self):
        # zigzag that crosses itself away from the pole: its turn about x0 is
        # -pi, so it passes above, crossing or not
        segs = (
            Line(-1 + 0j, 0.5 + 0.5j),
            Line(0.5 + 0.5j, -0.5 + 0.3j),
            Line(-0.5 + 0.3j, 1 + 0j),
        )
        p = ComplexPath(segs)
        assert classify_side(p, 0.0) == "above"

    def test_collinear_pieces_touching_at_a_point_self_intersect(self):
        # the path revisits 0 after a full clockwise circle, so it runs through x0 = 0
        p = ComplexPath((Line(-1 + 0j, 0j), Arc(-1 + 0j, 1.0, 0.0, -2 * math.pi),
                         Line(0j, 2 + 0j)))
        assert classify_side(p, 0.0) == "invalid"

    @pytest.mark.parametrize("radius", [1e-6, 1e-5])
    @pytest.mark.parametrize("side", ["above", "below"])
    def test_tiny_indentation_far_from_origin_is_not_a_touch(self, radius, side):
        # far from the origin the 2r gap between the two real pieces is tiny
        # next to the coordinates, and the side must still come out exactly
        spec = make_spec("cos(z)", 1e4, 1e4 + 1, 1e4 + 0.5, 0)
        p = semicircle_path(spec, radius, side)
        assert classify_side(p, spec.x0) == side

    def test_offset_rectangle_above(self):
        segs = (
            Line(-1 + 0j, -1 + 0.5j),
            Line(-1 + 0.5j, 1 + 0.5j),
            Line(1 + 0.5j, 1 + 0j),
        )
        assert classify_side(ComplexPath(segs), 0.0) == "above"

    def test_endpoints_off_axis_invalid(self):
        p = ComplexPath((Line(-1 + 0.5j, 1 + 0.5j),))
        assert classify_side(p, 0.0) == "invalid"

    def test_arc_just_over_x0_seen_from_inside(self):
        # a circle about -k*i whose top clears x0 = 0 by 0.01; the arc runs
        # clockwise from arg -3pi/4 to arg -pi/4 about x0, over the top
        k = (1 - 1e-4) / (math.sqrt(2) + 0.02)
        center = -k * 1j
        first, last = np.exp(-0.75j * math.pi), np.exp(-0.25j * math.pi)
        arc = Arc(center, abs(first - center), np.angle(first - center),
                  np.angle(last - center) - 2 * math.pi)
        assert abs(center) < arc.radius
        assert arc.radius - k == pytest.approx(0.01)
        assert arc.turn(0j) == pytest.approx(-1.5 * math.pi)
        assert arc.reversed().turn(0j) == pytest.approx(1.5 * math.pi)
        path = ComplexPath((Line(-1 + 0j, complex(arc.first)), arc,
                            Line(complex(arc.last), 1 + 0j)))
        assert path.turn(0.0) == pytest.approx(-math.pi)
        assert classify_side(path, 0.0) == "above"
        assert classify_side(path.conjugate(), 0.0) == "below"

    def test_full_circle_arc(self):
        for start, sign in ((-math.pi, 1), (math.pi, -1), (0.3, 1)):
            arc = Arc(0.5 + 0.5j, 1.0, start, start + sign * 2 * math.pi)
            for p in (0.5 + 0.5j, 0.9 + 0.2j, 0.5 - 0.49j):
                assert arc.turn(p) == pytest.approx(sign * 2 * math.pi)
            assert arc.turn(3 + 3j) == pytest.approx(0.0, abs=1e-12)
            assert arc.turn(0.5 + 1.5j + 1e-9j) == pytest.approx(0.0, abs=1e-6)


class TestPathValidation:
    def test_discontinuous_segments_rejected(self):
        with pytest.raises(ValueError, match="join"):
            ComplexPath((Line(-1 + 0j, 0 + 1j), Line(0.5 + 1j, 1 + 0j)))

    def test_conjugate_mirrors_to_other_side(self, unit_spec):
        for size in (0.3, 1.0):
            above = semicircle_path(unit_spec, size, "above")
            below = semicircle_path(unit_spec, size, "below")
            assert above.conjugate() == below
            assert below.conjugate() == above

    def test_reversed_flips_side_and_endpoints(self, unit_spec):
        p = semicircle_path(unit_spec, 0.5, "above")
        r = p.reversed()
        assert classify_side(r, 0.0) == "below"
        assert r.start == p.end
        assert r.end == p.start


class TestJson:
    def test_round_trip(self, unit_spec):
        p = semicircle_path(unit_spec, 0.5, "above")
        doc = path_to_dict(p)
        text = json.dumps(doc)
        q = path_from_dict(json.loads(text))
        assert q == p

    def test_schema_fields(self, unit_spec):
        doc = path_to_dict(semicircle_path(unit_spec, 1.0, "below"))
        assert set(doc) == {"segments"}
        seg = doc["segments"][0]
        assert seg["type"] == "arc"
        assert set(seg) == {"type", "center", "radius", "theta_start", "theta_end"}

    def test_unknown_segment_type(self):
        with pytest.raises(ValueError):
            path_from_dict({"side": "above",
                            "segments": [{"type": "spline", "from": [0, 0], "to": [1, 1]}]})


# -- randomized side round-trip --------------------------------------------

@settings(max_examples=500, deadline=None)
@given(
    eps_frac=st.floats(0.05, 0.95),
    side=st.sampled_from(["above", "below"]),
    a=st.floats(-5, -0.2),
    b=st.floats(0.2, 5),
    x0_frac=st.floats(0.15, 0.85),
)
def test_classify_round_trip_random(eps_frac, side, a, b, x0_frac):
    x0 = a + (b - a) * x0_frac
    spec = make_spec("cos(z)", a, b, x0, 0)
    eps = eps_frac * spec.pole_gap
    if eps < 1e-6 * (b - a):
        return
    path = semicircle_path(spec, eps, side)
    assert classify_side(path, x0) == side


# -- exact turn against a dense-sampling reference ---------------------------

CLEARANCE = 0.05  # keeps sampled steps well below the distance to the point


def _samples(path, per_segment=4000):
    pts = []
    for seg in path.segments:
        lo, hi = seg.param_interval
        pts.append(seg.point(np.linspace(lo, hi, per_segment)))
    return np.concatenate(pts)


def _sampled_turn(points, p):
    angles = np.unwrap(np.angle(points - p))
    return angles[-1] - angles[0]


def _sampled_side(path, x0):
    """Side from the winding about x0 of the densely sampled loop made of the
    path and the straight return from b to a, indented below x0."""
    a, b = path.start, path.end
    delta = min(x0 - a.real, b.real - x0, path.min_distance_to(complex(x0))) / 2
    back = ComplexPath((Line(b, complex(x0 + delta)), Arc(complex(x0), delta, 0.0, -math.pi),
                        Line(complex(x0 - delta), a)))
    winding = _sampled_turn(np.concatenate([_samples(path), _samples(back)]), x0) / (2 * math.pi)
    return {-1: "above", 0: "below"}.get(round(winding), "invalid")


def _joined(a, arc, b):
    return (Line(a, complex(arc.first)), arc, Line(complex(arc.last), b))


def _cap(a, b, h, over):
    """One arc from a to b about (a+b)/2 + i*h, over the top or under the
    bottom; for h > 0 the cap over the top sweeps more than pi."""
    c = complex((a + b) / 2, h)
    ta, tb = np.angle(a - c), np.angle(b - c)
    if over:
        te = ta - (ta - tb) % (2 * math.pi)
    else:
        te = ta + (tb - ta) % (2 * math.pi)
    return (Arc(c, abs(a - c), float(ta), float(te)),)


coord = st.floats(-3, 3)
point = st.builds(complex, coord, st.floats(-2, 2))
angle = st.floats(-math.pi, math.pi)
ends = st.tuples(st.floats(-4, -0.5), st.floats(0.5, 4))


@st.composite
def random_paths(draw):
    a, b = draw(ends)
    kind = draw(st.sampled_from(["polyline", "arc", "cap", "loop"]))
    if kind == "polyline":
        verts = [complex(a)] + draw(st.lists(point, min_size=1, max_size=4)) + [complex(b)]
        segs = tuple(Line(p, q) for p, q in zip(verts, verts[1:]))
    elif kind == "arc":  # an arc centred anywhere, joined to a and b by lines
        start = draw(angle)
        arc = Arc(draw(point), draw(st.floats(0.2, 3)),
                  start, start + draw(st.floats(-1.99, 1.99)) * math.pi)
        segs = _joined(complex(a), arc, complex(b))
    elif kind == "cap":
        segs = _cap(a, b, draw(st.floats(-3, 3)), draw(st.booleans()))
    else:  # a full circle traversed on the way from a to b
        start = draw(angle)
        arc = Arc(draw(point), draw(st.floats(0.2, 2)), start,
                  start + draw(st.sampled_from([-2, 2])) * math.pi)
        segs = _joined(complex(a), arc, complex(b))
    return ComplexPath(segs)


@settings(max_examples=1000, deadline=None)
@given(path=random_paths(), x0_frac=st.floats(0.05, 0.95), p=point)
def test_exact_turn_matches_sampled_winding(path, x0_frac, p):
    samples = _samples(path)
    if path.min_distance_to(p) > CLEARANCE:
        assert path.turn(p) == pytest.approx(_sampled_turn(samples, p), abs=1e-6)
    x0 = path.start.real + x0_frac * (path.end.real - path.start.real)
    if path.min_distance_to(complex(x0)) > CLEARANCE:
        assert path.turn(x0) == pytest.approx(_sampled_turn(samples, x0), abs=1e-6)
        assert classify_side(path, x0) == _sampled_side(path, x0)
