"""The planner's forecasts checked point by point against planned runs.

At m_F = 1000, on 5, 30, 65 and 75 km and the three strategies, each
point plans once and runs its plan RUNS times, on a seed base of its own.
The forecast describes the key length M of a run that passes estimation
(expected_m, expected_m_std) and the probability that a run does so
(P_success). Per point:

- the mean of m over the runs that deliver lies within 4 standard errors,
  expected_m_std / sqrt(n), of expected_m;
- their standard deviation over expected_m_std lies within
  1 +- 4 / sqrt(2 n), the sampling spread of a standard deviation;
- the abort count is not in either tail of Binomial(RUNS, 1 - P_success)
  beyond TAIL, by the exact binomial probabilities. At 75 km, fraction,
  P_success is 0.99913, where a normal approximation does not hold.
"""

import math

import pytest
from test_acceptance import BASE_SEED, LINK, SEC

from vlbb84.planner import COUNT, FRACTION, SQRT, plan
from vlbb84.protocol import derive_seed, run_from_plan

M_F = 1000
DISTANCES = (5.0, 30.0, 65.0, 75.0)
KINDS = (FRACTION, COUNT, SQRT)
POINTS = [(d, kind) for d in DISTANCES for kind in KINDS]
RUNS = 200
TAIL = 1e-4
# One seed base per point.
SEED_BASES = {point: BASE_SEED + 20 + i for i, point in enumerate(POINTS)}


def binomial_tails(n: int, p: float, k: int) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p)."""
    pmf = [math.comb(n, j) * p ** j * (1.0 - p) ** (n - j)
           for j in range(n + 1)]
    return sum(pmf[:k + 1]), sum(pmf[k:])


def test_binomial_tails():
    assert binomial_tails(4, 0.5, 2) == (11 / 16, 11 / 16)
    assert binomial_tails(200, 0.0, 0) == (1.0, 1.0)
    low, high = binomial_tails(200, 0.01, 1)
    assert low == pytest.approx(0.99 ** 200 + 200 * 0.01 * 0.99 ** 199)
    assert high == pytest.approx(1 - 0.99 ** 200)


@pytest.mark.parametrize("d, kind", POINTS)
def test_planned_runs_match_forecast(d, kind):
    the_plan = plan(d, M_F, kind, LINK, SEC)
    records = [run_from_plan(the_plan, LINK, SEC,
                             derive_seed(SEED_BASES[d, kind], i))
               for i in range(RUNS)]
    m = [r.m for r in records if not r.aborted]
    aborts = RUNS - len(m)
    n = len(m)
    mean = sum(m) / n
    std = math.sqrt(sum((x - mean) ** 2 for x in m) / (n - 1))
    se = the_plan.expected_m_std / math.sqrt(n)
    ratio = std / the_plan.expected_m_std
    low, high = binomial_tails(RUNS, 1.0 - the_plan.P_success, aborts)
    print(f"[INFO] {d:g} km {kind}: mean m {mean:.1f} vs {the_plan.expected_m}"
          f" ({(mean - the_plan.expected_m) / se:+.2f} SE), std ratio "
          f"{ratio:.3f}, aborts {aborts} vs "
          f"{RUNS * (1.0 - the_plan.P_success):.2f} expected")
    assert abs(mean - the_plan.expected_m) <= 4 * se
    assert abs(ratio - 1.0) <= 4 / math.sqrt(2 * n)
    assert min(low, high) >= TAIL, (aborts, low, high)
