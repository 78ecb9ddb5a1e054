"""Cross-check all evaluation routes on a small corpus.

Five independent routes compute the same principal value / finite part:

  average   mean of the above- and below-pole contour integrals
  upper     above-pole contour plus i*pi times the residue term
  lower     below-pole contour minus i*pi times the residue term
  fox       Fox's symmetric limit closed at one epsilon: its own real-axis
            quadrature outside [x0 - eps, x0 + eps], plus the Taylor
            series' finite part over that window
  series    the same Taylor window sum over all of [a, b]

fox and series share the Taylor kernel and the window sum; the real-axis
quadrature is fox's own.

Agreement across routes is the strongest correctness evidence the library
offers, since the routes share almost no code.
"""

from apvint import apv_average, apv_lower, apv_upper
from apvint.classical import fox_limit, series_fpi
from apvint.expr import AnalyticityDecl, parse
from apvint.paths import IntegralSpec

PROBLEMS = [
    ("cos(z)", -1.0, 1.0, 0.0, 1),
    ("exp(z)", -1.0, 2.0, 0.0, 0),
    ("exp(z)", -1.0, 1.0, 0.0, 2),
    ("z^3 + 2*z + 1", -1.0, 3.0, 1.0, 3),
    ("sinh(z)", -1.5, 1.0, -0.25, 2),
]

for source, a, b, x0, n in PROBLEMS:
    spec = IntegralSpec(f=parse(source), a=a, b=b, x0=x0, n=n,
                        decl=AnalyticityDecl(declared_poles=(), entire=True))
    values = {name: route(spec).value for name, route in (
        ("average", apv_average), ("upper", apv_upper), ("lower", apv_lower),
        ("fox", fox_limit), ("series", series_fpi))}
    spread = max(values.values()) - min(values.values())
    print(f"{source}/(x - {x0})^{n + 1} on [{a}, {b}]")
    for name, v in values.items():
        print(f"    {name:<8} {v:>22.15f}")
    print(f"    spread   {spread:>22.2e}")
