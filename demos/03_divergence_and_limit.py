"""Watch the raw symmetric sum diverge, then close the limit at one eps.

For cos(x)/x^2 on [-1, 1] the naive symmetric sum
S_raw(eps) = int_{-1}^{-eps} + int_{eps}^{1} blows up like 2 f(0)/eps as the
excluded window shrinks.  Fox's finite part subtracts the divergent terms and
lets eps -> 0; fox_limit instead adds, at one eps, the Taylor series' finite
part over the window [-eps, eps], which is that limit in closed form.
"""

import math

from apvint.classical import fox_limit
from apvint.cosexample import cos_problem, si
from apvint.quadrature import integrate_real_segment

spec = cos_problem(1)

print(f"{'eps':>10} {'raw sum':>16} {'raw*eps':>10}")
for k in range(12):
    eps = 0.25 * 2.0 ** -k
    raw = (integrate_real_segment(spec, spec.a, -eps).value
           + integrate_real_segment(spec, eps, spec.b).value).real
    print(f"{eps:>10.5f} {raw:>16.4f} {raw * eps:>10.4f}")

out = fox_limit(spec)
exact = -2.0 * (math.cos(1.0) + si(1.0))
print(f"\nfox at one eps = {out.detail['eps']}")
print(f"fox:          {out.value:.15f}  (err estimate {out.err_estimate:.1e})")
print(f"closed form:  {exact:.15f}")
print(f"abs err:      {abs(out.value - exact):.2e}")
