import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apvint.apv import apv_average
from apvint.paths import semicircle_path
from apvint.quadrature import QuadConfig, integrate_function
from apvint.spf import boundary_values, default_y_schedule, phi_at, spf_identity_check

from conftest import COS_FPI_N1, make_spec


class TestPhiAt:
    def test_constant_at_i(self):
        # closed form: log(1 - i) - log(-1 - i) = i*pi/2
        spec = make_spec("1", -1, 1, 0, 0)
        r = phi_at(spec, 1j)
        assert r.value == pytest.approx(0.5j * math.pi, abs=1e-11)

    def test_decay_at_infinity(self):
        spec = make_spec("1", -1, 1, 0, 0)
        z = 1e10j
        r = phi_at(spec, z)
        assert abs(r.value) <= 2 * (spec.b - spec.a) / abs(z.imag)

    def test_against_brute_force(self):
        # oracle: fixed composite midpoint rule with 10^4 nodes
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        z = 0.5j
        n = 10_000
        h = (spec.b - spec.a) / n
        brute = sum(math.cos(spec.a + (j + 0.5) * h) / ((spec.a + (j + 0.5) * h) - z) ** 2
                    for j in range(n)) * h
        r = phi_at(spec, z)
        assert r.value == pytest.approx(brute, abs=1e-6)

    def test_on_segment_rejected(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        with pytest.raises(ValueError):
            phi_at(spec, 0.5 + 0j)

    def test_real_point_outside_segment_ok(self):
        spec = make_spec("1", -1, 1, 0, 0)
        r = phi_at(spec, 3.0 + 0j)
        assert r.value == pytest.approx(math.log(2.0) - math.log(4.0), abs=1e-11)


class TestBoundaryValues:
    def test_cos_n0(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        rep = boundary_values(spec)
        assert rep.detail["phi_plus"] == pytest.approx(1j * math.pi, abs=1e-7)
        assert rep.detail["phi_minus"] == pytest.approx(-1j * math.pi, abs=1e-7)

    def test_cos_n1_residue_free(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        rep = boundary_values(spec)
        assert rep.detail["phi_plus"] == pytest.approx(COS_FPI_N1, abs=1e-6)
        assert rep.detail["phi_minus"] == pytest.approx(COS_FPI_N1, abs=1e-6)

    def test_constant_n0(self):
        spec = make_spec("1", -1, 1, 0, 0)
        rep = boundary_values(spec)
        assert rep.detail["phi_plus"] == pytest.approx(1j * math.pi, abs=1e-8)

    def test_jump_and_reality_invariants(self):
        spec = make_spec("exp(z)", -1, 1, 0, 1)
        rep = boundary_values(spec)
        tol = max(rep.err_estimate * 10, 1e-6)
        # real parts agree
        assert rep.detail["phi_plus"].real == pytest.approx(rep.detail["phi_minus"].real, abs=tol)
        # jump equals 2*pi*i*f'(0) = 2*pi*i
        jump = rep.detail["phi_plus"] - rep.detail["phi_minus"]
        assert jump == pytest.approx(2j * math.pi, abs=tol)

    def test_monotone_tail_convergence(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        rep = boundary_values(spec)
        errs = [abs(u - rep.detail["phi_plus"]) for _, u, _ in rep.detail["y_samples"]]
        assert all(b < a for a, b in zip(errs[-4:], errs[-3:]))


class TestIdentities:
    @pytest.mark.parametrize("src,n", [("cos(z)", 0), ("cos(z)", 1), ("exp(z)", 2)])
    def test_boundary_equals_opposite_contour(self, src, n):
        spec = make_spec(src, -1, 1, 0, n)
        out = spf_identity_check(spec)
        assert out["max_abs_diff"] <= 1e-6

    def test_path_below_gives_its_mirrors_identities(self):
        spec = make_spec("cos(z)", -1, 1, 0, 1)
        above = semicircle_path(spec, 0.5)
        assert spf_identity_check(spec, above.conjugate()) == spf_identity_check(spec, above)

    def test_average_identity(self):
        spec = make_spec("exp(z)", -1, 1, 0, 1)
        rep = boundary_values(spec)
        avg = 0.5 * (rep.detail["phi_plus"] + rep.detail["phi_minus"])
        assert avg.real == pytest.approx(apv_average(spec).value, abs=1e-6)


@settings(max_examples=500, deadline=None)
@given(y=st.floats(0.01, 2.0), x=st.floats(-0.9, 0.9))
def test_conjugate_symmetry(y, x):
    spec = make_spec("cos(z)", -1, 1, 0, 1)
    cfg = QuadConfig(rel_tol=1e-8, abs_tol=1e-10)
    z = complex(x, y)
    up = phi_at(spec, z, cfg).value
    dn = phi_at(spec, z.conjugate(), cfg).value
    assert dn == pytest.approx(up.conjugate(), abs=1e-7)


class TestSerialization:
    def test_default_schedule_shape(self):
        spec = make_spec("cos(z)", -1, 1, 0, 0)
        ys = default_y_schedule(spec)
        assert ys[0] == pytest.approx((spec.b - spec.a) / 8)
        assert ys[-1] >= 1e-4 * (spec.b - spec.a)
        assert all(b < a for a, b in zip(ys, ys[1:]))
