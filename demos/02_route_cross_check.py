"""Cross-check all evaluation routes on a small corpus.

Five independent routes compute the same principal value / finite part:

  average   mean of the above- and below-pole contour integrals
  upper     above-pole contour plus i*pi times the residue term
  lower     below-pole contour minus i*pi times the residue term
  fox       symmetric epsilon-limit with divergent terms subtracted,
            Richardson-extrapolated to epsilon -> 0
  series    closed form from the Taylor coefficients of the numerator

Agreement across routes is the strongest correctness evidence the library
offers, since the routes share almost no code.
"""

from apvint import apv_average, apv_lower, apv_upper
from apvint.classical import fox_limit, series_fpi, taylor_from_expr
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
    values = {
        "average": apv_average(spec).value,
        "upper": apv_upper(spec).value,
        "lower": apv_lower(spec).value,
        "fox": fox_limit(spec)["value"],
        "series": series_fpi(taylor_from_expr(spec), spec),
    }
    spread = max(values.values()) - min(values.values())
    print(f"{source}/(x - {x0})^{n + 1} on [{a}, {b}]")
    for name, v in values.items():
        print(f"    {name:<8} {v:>22.15f}")
    print(f"    spread   {spread:>22.2e}")
