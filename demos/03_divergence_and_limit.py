"""Watch the raw symmetric sum diverge, then converge after subtraction.

For cos(x)/x^2 on [-1, 1] the naive symmetric sum S_raw(eps) blows up like
2 f(0)/eps as the excluded window shrinks.  Subtracting the divergent terms
turns the same samples into a sequence with a finite limit, which Richardson
extrapolation then accelerates.
"""

import math

from apvint.classical import fox_limit
from apvint.cosexample import cos_problem, si

spec = cos_problem(1)
out = fox_limit(spec)

print(f"{'eps':>10} {'raw sum':>16} {'raw*eps':>10} {'corrected':>18}")
for (eps, raw), (_, corrected) in zip(out.detail["raw_samples"], out.detail["samples"]):
    print(f"{eps:>10.5f} {raw:>16.4f} {raw * eps:>10.4f} {corrected:>18.12f}")

exact = -2.0 * (math.cos(1.0) + si(1.0))
print(f"\nextrapolated: {out.value:.15f}")
print(f"closed form:  {exact:.15f}")
print(f"abs err:      {abs(out.value - exact):.2e}")
