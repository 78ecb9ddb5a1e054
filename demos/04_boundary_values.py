"""Boundary values of the sectionally analytic function.

Phi(z) = integral of f(x)/(x - z)^(n+1) over [a, b] is analytic off the
segment.  Approaching a point x0 inside the segment from above and below
gives two different limits Phi+ and Phi-; their average recovers the
principal value / finite part, and their difference is 2*pi*i times the
residue term.  The limits are taken by evaluating Phi at x0 + i*y on a
shrinking schedule of y and extrapolating to y = 0.
"""

import math

from apvint import apv_average
from apvint.cosexample import cos_problem
from apvint.spf import boundary_values

for n in (0, 1, 2):
    spec = cos_problem(n)
    rep = boundary_values(spec)
    phi_plus, phi_minus = rep.detail["phi_plus"], rep.detail["phi_minus"]
    jump = phi_plus - phi_minus
    contour = apv_average(spec).value
    print(f"n = {n}")
    print(f"    Phi+            {phi_plus:.12f}")
    print(f"    Phi-            {phi_minus:.12f}")
    print(f"    average (real)  {rep.value:.12f}   contour route {contour:.12f}")
    print(f"    jump / (2 pi i) {(jump / (2j * math.pi)):.12f}")
