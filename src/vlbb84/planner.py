"""Reverse analysis: size the quantum phase for a requested output length.

Given a link distance and a target final-key length m_F, compute the
minimum pulse count N_F and the artificial-noise level that minimizes it,
for each of three parameter-estimation strategies:

  fraction  g(n) = g         a constant fraction of the sifted key
  count     g(n) = A / n     a constant number of sifted bits
  sqrt      g(n) = B / n**.5 a sample growing like sqrt(n)

The chain is: accuracy condition -> sample-size floor A_0, target length
-> post-sifting requirement l_F, strategy moments -> N_F lower bounds,
then a search over the artificial noise to minimize N_F: one numpy
screen of the whole noise grid, an exact scalar re-check of the grid
points the screen puts near the minimum, and a golden-section refinement
that evaluates one new noise level per step. The scalar budget is one
path: _request_budget sets up a request once (its g and m_F checks and
extraction floor, and the refusal of a link with p = 0, which no noise
level can make feasible) and returns its budget as a function of the
noise level, which the search, photon_budget and a plan at a given noise
all call. The scalar budget and the screen share the strategies' N_F
formulas, one solver of the sqrt strategy's sample-limit cubic (its
closed-form largest root) and one rule, that an N_F which is not a
finite float is infeasible. The formulas take their elementwise
functions under numpy's names: the scalar path passes _Libm (libm and
builtins on Python floats), the screen passes numpy itself. The
screen's prelude, the requirements A_0 and l_F at every grid point,
runs in few numpy calls and in place, and marks the levels the scalar
refuses by a NaN in l_F's denominator. So the two paths differ only by
rounding: the prelude's (exp(x * ln 10) for 10**x, A_0 as
(1 - p_hat) / (gamma^2 p_hat)), and libm-vs-numpy log2, pow and (for
sqrt) arccos and cos.

plan() is the only entry that takes a distance and a LinkParams: it
derives the channel once, and every function below it (budget, noise
optimum, strategy resolution at fixed N, forecasts) takes that
ChannelDerived instead.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .link_model import (ChannelDerived, LinkParams, SecurityParams,
                         channel_at, check_p_extra, effective_flip)
from .numerics import binary_entropy, normal_cdf, output_length_fixed_point

FRACTION = "fraction"
COUNT = "count"
SQRT = "sqrt"
STRATEGY_KINDS = (FRACTION, COUNT, SQRT)

DEFAULT_FRACTION = 1.0 / 3.0

# Artificial-noise search: grid spacing of the scan, then the width at
# which the golden-section refinement stops.
_NOISE_GRID_STEP = 1e-4
_NOISE_TOL = 1e-6
# Grid points whose screened N_F lies within this relative distance of the
# screened minimum are re-evaluated by the scalar objective. The screen
# differs from it only by rounding (its prelude's, and numpy-vs-libm log2,
# exp, pow and, for sqrt, arccos and cos), ~1e-14 relative, so the scalar
# minimum is always among them.
_SCREEN_MARGIN = 1e-9


class InfeasibleError(ValueError):
    """A sizing or protocol stage cannot be satisfied; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def _check_fraction(g: float) -> None:
    """Reject a fraction g outside (0, 1/2] before any budget divides by it."""
    if not 0.0 < g <= 0.5:
        raise ValueError(f"fraction g must be in (0, 1/2], got {g}")


@dataclass(frozen=True)
class Strategy:
    """A parameter-estimation rule with its tuning constant.

    param means: g for 'fraction' (in (0, 1/2]), A in bits for 'count',
    B for 'sqrt'. The realized fraction is always capped at 1/2 of the
    sifted key.
    """

    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == FRACTION:
            _check_fraction(self.param)
        if self.kind in (COUNT, SQRT) and self.param <= 0.0:
            raise ValueError(f"{self.kind} param must be > 0, got {self.param}")

    def sample_size(self, n: int) -> int:
        """Estimation sample size for a sifted key of length n.

        Round-half-up, at least 1, at most floor(n/2).
        """
        if self.kind == FRACTION:
            raw = self.param * n
        elif self.kind == COUNT:
            raw = self.param
        else:
            raw = self.param * math.sqrt(n)
        size = math.floor(raw + 0.5)
        return min(max(size, 1), n // 2)


@dataclass(frozen=True)
class EstimatorStats:
    mean_L: float        # expected post-estimation key length, bits
    std_L: float         # its standard deviation, bits
    mean_sample: float   # expected estimation sample size E[g(Y)*Y], bits
    std_Qhat: float      # standard deviation of the observed error rate


@dataclass(frozen=True)
class Plan:
    """Sizing output for one (distance, m_F, strategy) request; its fields
    are the keys of its JSON document, in order."""

    d: float
    m_F: int
    strategy: Strategy
    N_F: int
    P_extra_opt: float
    l_F: float
    A_0: float
    n_lim: Optional[float]      # sqrt strategy only
    expected_m: int
    expected_m_std: float
    expected_KBR: float
    KBR_std: float
    P_success: float

    def as_dict(self) -> dict:
        return asdict(self)


def gamma(p_hat: float, sec: SecurityParams) -> float:
    """Relative accuracy allowed for the error-rate estimate at p_hat.

    Relaxes toward eps * (1 + alpha) as p_hat -> 0 and tightens to eps for
    large p_hat, so low-error links do not force unbounded sample sizes.
    """
    return sec.eps * (1.0 + sec.alpha * 10.0 ** (-sec.beta * p_hat))


def a0(p_hat: float, sec: SecurityParams) -> float:
    """Minimum expected estimation sample size at effective rate p_hat."""
    if p_hat <= 0.0:
        raise InfeasibleError("a0", "accuracy condition diverges at p_hat = 0")
    if p_hat >= 1.0:
        raise ValueError(f"p_hat must be in (0, 1), got {p_hat}")
    g = gamma(p_hat, sec)
    try:
        return (1.0 / (g * g)) * (1.0 / p_hat - 1.0)
    except ZeroDivisionError:
        raise InfeasibleError(
            "a0", f"accuracy gamma = {g:.3e} squared underflows to 0 at "
            f"p_hat = {p_hat:.6g}") from None


def _extraction_floor(m_f: int, sec: SecurityParams) -> float:
    """Key length needed to extract m_f bits from an error-free key."""
    if m_f < 1:
        raise ValueError(f"m_f must be >= 1, got {m_f}")
    return m_f + 6.0 + 4.0 * math.log2(m_f / sec.eps_max)


def l_f(m_f: int, p_hat: float, sec: SecurityParams) -> float:
    """Sifted-key length needed after estimation to extract m_f bits."""
    return _l_f_from_floor(_extraction_floor(m_f, sec), p_hat, 1.0 + sec.f_max)


def _l_f_from_floor(floor: float, p_hat: float, one_f: float) -> float:
    """l_f from its extraction floor and 1 + f_max."""
    den = 1.0 - one_f * binary_entropy(p_hat)
    if den <= 0.0:
        raise InfeasibleError(
            "l_f", f"effective flip {p_hat:.6f} at or above the abort threshold")
    return floor / den


def strategy_stats(n_pulses: float, p: float, p_hat: float,
                   strategy: Strategy) -> EstimatorStats:
    """First and second moments of the post-estimation key length and of
    the observed error rate, per strategy."""
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    if not 0.0 < p <= 0.5:
        raise ValueError(f"p must be in (0, 1/2], got {p}")
    np_ = n_pulses * p
    sigma_y = math.sqrt(np_ * (1.0 - p))
    if strategy.kind == FRACTION:
        g = strategy.param
        mean_l = (1.0 - g) * np_
        std_l = (1.0 - g) * sigma_y
        sample = g * np_
    elif strategy.kind == COUNT:
        mean_l = np_ - strategy.param
        std_l = sigma_y
        sample = strategy.param
    else:
        b = strategy.param
        mean_l = np_ - b * math.sqrt(np_)
        std_l = (1.0 - b / (2.0 * math.sqrt(np_))) * sigma_y
        sample = b * math.sqrt(np_)
    if sample <= 0.0 or mean_l <= 0.0:
        raise InfeasibleError(
            "strategy_stats",
            f"nonpositive sample ({sample:.3f}) or key length ({mean_l:.3f})")
    std_qhat = math.sqrt(p_hat * (1.0 - p_hat) / sample)
    return EstimatorStats(mean_L=mean_l, std_L=std_l, mean_sample=sample,
                          std_Qhat=std_qhat)


class _Libm:
    """libm and builtins under numpy's names: the elementwise calls of the
    budget formulas and the sqrt solver on Python floats. The scalar
    budget passes this class where the screen passes numpy itself. The
    solver passes the value first to max and min, so a nan propagates as
    through np.maximum and np.minimum."""

    sqrt, arccos, cos = math.sqrt, math.acos, math.cos
    maximum, minimum = max, min

    @staticmethod
    def where(cond, a, b):
        return a if cond else b


def _sqrt_sample_limit(l_f_bits, a0_bits, p: float, c_f: float, xp=_Libm):
    """Largest root x of the sqrt-strategy feasibility equation

        x**1.5 - C_F*sqrt(1-p)*x - (l_F + A_0)*sqrt(x)
            + (A_0*C_F/2)*sqrt(1-p) = 0,

    elementwise over float requirements (with xp = _Libm, a Python float)
    or array ones (with xp = numpy); inf where it has no positive root.

    In u = sqrt(x) it is the cubic u**3 + ca*u**2 + cb*u + cc with
    cb <= 0 <= cc, so its stationary points lie on either side of u = 0.
    It has a positive root iff it is <= 0 at the right one, u_stat, and
    then it has three real roots: the largest comes from the
    trigonometric form.

    Huge or non-finite requirements overflow r*r*r or give nan, which the
    caller treats as an infeasible N_F: on floats r*r*r is inf and inf/inf
    nan, and an array call runs under the screen's np.errstate.
    """
    root_1p = math.sqrt(1.0 - p)
    ca = -c_f * root_1p
    cb = -(l_f_bits + a0_bits)
    cc = a0_bits * c_f / 2.0 * root_1p
    u_stat = (-ca + xp.sqrt(ca * ca - 3.0 * cb)) / 3.0
    no_root = ((u_stat + ca) * u_stat + cb) * u_stat + cc > 0.0
    shift = ca / 3.0
    p3 = (cb - ca * shift) / 3.0
    q2 = (cc + shift * (2.0 * shift * shift - cb)) / 2.0
    r = xp.sqrt(-p3)
    cos_3theta = xp.minimum(xp.maximum(-q2 / (r * r * r), -1.0), 1.0)
    u = 2.0 * r * xp.cos(xp.arccos(cos_3theta) / 3.0) - shift
    return xp.where(no_root, math.inf, u * u)


def _budget_from_requirements(kind: str, p: float, a0_bits, l_f_bits,
                              sec: SecurityParams, g: float = DEFAULT_FRACTION,
                              xp=_Libm):
    """Real-valued N_F from the two requirements (sample floor, key floor).

    Returns (N_F, n_lim); n_lim is None except for 'sqrt'. The scalar
    budget calls it on floats with xp = _Libm (libm and builtins), the
    noise screen on arrays with xp = numpy. On the same
    requirements the two differ only by libm-vs-numpy rounding of pow and,
    for sqrt, of arccos and cos.
    """
    sqrt, maximum = xp.sqrt, xp.maximum
    cf2 = sec.C_F ** 2
    one_p = 1.0 - p
    if kind == FRACTION:
        n_acc = a0_bits / (g * p)
        n_len = cf2 / (4.0 * p) * (
            math.sqrt(one_p)
            + sqrt(one_p + 4.0 * l_f_bits / (cf2 * (1.0 - g)))) ** 2
        return maximum(n_acc, n_len), None
    if kind == COUNT:
        n_acc = 2.0 * a0_bits / p
        n_len = cf2 / (4.0 * p) * (
            math.sqrt(one_p)
            + sqrt(one_p + 4.0 * (a0_bits + l_f_bits) / cf2)) ** 2
        return maximum(n_acc, n_len), None
    if kind == SQRT:
        n_lim = _sqrt_sample_limit(l_f_bits, a0_bits, p, sec.C_F, xp)
        return maximum(4.0 * a0_bits ** 2 / n_lim, n_lim) / p, n_lim
    raise ValueError(f"unknown strategy kind {kind!r}")


def _request_budget(channel: ChannelDerived, m_f: int, kind: str,
                    sec: SecurityParams, g: float = DEFAULT_FRACTION):
    """The scalar budget of one request, as a function of the noise level.

    The set-up checks g and m_F, takes the extraction floor once, and
    refuses a link with p = 0, where no noise level is feasible; the
    returned budget(p_extra) gives (N_F, n_lim, A_0, l_F), the real-valued
    N_F before integer rounding. An N_F that is not a finite float is
    infeasible: that covers a sqrt sample limit with no positive root,
    and requirements so large (a subnormal flip or g) that the budget
    overflows or divides by an underflowed g*p.
    """
    if kind == FRACTION:
        _check_fraction(g)
    p, p_flip, q_t = channel.p, channel.P_flip, sec.Q_t
    floor, one_f = _extraction_floor(m_f, sec), 1.0 + sec.f_max
    if p <= 0.0:
        raise InfeasibleError("photon_budget",
                              "link delivers no signal (p = 0)")

    def budget(p_extra: float) -> tuple:
        p_hat = effective_flip(p_flip, p_extra)
        if p_hat <= 0.0:
            raise InfeasibleError("photon_budget", "effective flip is 0; "
                                  "accuracy condition diverges")
        if p_hat >= q_t:
            raise InfeasibleError("photon_budget", f"effective flip "
                                  f"{p_hat:.6f} >= abort threshold {q_t}")
        a0_bits = a0(p_hat, sec)
        l_f_bits = _l_f_from_floor(floor, p_hat, one_f)
        try:
            n_f, n_lim = _budget_from_requirements(kind, p, a0_bits, l_f_bits,
                                                   sec, g)
        except (OverflowError, ZeroDivisionError):
            n_f = math.inf
        if not math.isfinite(n_f):
            raise InfeasibleError("photon_budget", "no finite N_F meets the "
                                  "sample and key-length requirements")
        return n_f, n_lim, a0_bits, l_f_bits
    return budget


def _screen_budget(channel: ChannelDerived, m_f: int, kind: str,
                   p_extra: np.ndarray, sec: SecurityParams,
                   g: float) -> np.ndarray:
    """The N_F of _request_budget's budget at every noise level of the
    float array p_extra, inf where the budget raises InfeasibleError.

    Precondition: the request's set-up passed, so g and m_F are valid and
    p > 0. optimal_extra_noise sets up _request_budget before it screens,
    and that set-up refuses p = 0 (test_dark_link_is_refused_at_setup);
    called directly on a p = 0 channel, the screen raises
    ZeroDivisionError for fraction and count.

    Its array prelude computes the scalar's A_0 and l_F in few numpy
    calls, in place where it can: p_hat with effective_flip's rounding (so
    the Q_t test agrees with the scalar's), gamma's 10**x as
    exp(x * ln 10), A_0 as (1 - p_hat) / (gamma^2 p_hat), and the
    entropy's sign folded into l_F's denominator, which is exact. It
    writes NaN into that denominator where the scalar raises before its
    N_F formulas (p_hat at or above Q_t, or a denominator that is not
    positive, p_hat = 0 among them). The N_F formulas and the sqrt solver
    are _budget_from_requirements' own, run with numpy under this
    function's np.errstate, and they carry a NaN through, so one fmin
    marks every infeasible level inf. The screen differs from the scalar
    N_F only by rounding: the prelude's, and numpy's log2, exp, pow and
    (for sqrt) arccos and cos for libm's, ~1e-14 relative: enough to rank
    noise levels, not to replace the scalar.
    """
    p, p_flip = channel.p, channel.P_flip
    # p_hat = 0 divides by zero and takes log2(0), and extreme inputs
    # overflow, the sqrt solver's r*r*r among them; the non-finite N_F they
    # give is infeasible.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p_hat = p_flip + p_extra                # effective_flip's rounding
        p_hat -= (2.0 * p_flip) * p_extra
        q_hat = 1.0 - p_hat
        gam = sec.eps * (1.0 + sec.alpha * np.exp(
            (-sec.beta * math.log(10.0)) * p_hat))
        a0_bits = q_hat / (gam * gam * p_hat)
        den = np.log2(p_hat)
        den *= p_hat
        q_hat *= np.log2(q_hat)
        den += q_hat
        den *= 1.0 + sec.f_max
        den += 1.0                              # 1 - (1 + f_max) * h(p_hat)
        den[(den <= 0.0) | (p_hat >= sec.Q_t)] = math.nan
        l_f_bits = np.divide(_extraction_floor(m_f, sec), den, out=den)
        n_f, _ = _budget_from_requirements(kind, p, a0_bits, l_f_bits, sec, g,
                                           np)
    # N_F is never negative, so its non-finite values are inf and NaN; fmin
    # maps NaN to inf.
    return np.fmin(n_f, math.inf, out=n_f)


def _resolve_strategy(kind: str, a0_bits: float, n: Optional[float],
                      g: float) -> Strategy:
    """The strategy whose constant meets the sample floor A_0.

    fraction takes g as given; count sets A = A_0; sqrt sets
    B = A_0 / sqrt(n), with n the sifted length the rule is tuned at
    (n_lim for a planned run, N*p for a fixed-N run).
    """
    if kind == FRACTION:
        return Strategy(FRACTION, g)
    if kind == COUNT:
        return Strategy(COUNT, a0_bits)
    if kind == SQRT:
        return Strategy(SQRT, a0_bits / math.sqrt(n))
    raise ValueError(f"unknown strategy kind {kind!r}")


def photon_budget(channel: ChannelDerived, m_f: int, kind: str,
                  p_extra: float, sec: SecurityParams,
                  g: float = DEFAULT_FRACTION):
    """Minimum pulse count N_F for the request, with the resolved strategy.

    Returns (N_F, strategy, n_lim); n_lim is None except for 'sqrt'. The
    count strategy resolves A to the sample floor A_0, and the sqrt
    strategy resolves B to A_0 / sqrt(n_lim).
    """
    n_f, n_lim, a0_bits, _ = _request_budget(channel, m_f, kind, sec,
                                             g)(p_extra)
    return math.ceil(n_f), _resolve_strategy(kind, a0_bits, n_lim, g), n_lim


def _max_extra_noise(p_flip: float, sec: SecurityParams) -> float:
    """Largest artificial noise keeping the effective flip below Q_t."""
    return (sec.Q_t - p_flip) / (1.0 - 2.0 * p_flip)


def optimal_extra_noise(channel: ChannelDerived, m_f: int, kind: str,
                        sec: SecurityParams, g: float = DEFAULT_FRACTION,
                        budget: Optional[list] = None) -> float:
    """Artificial-noise level minimizing N_F on this channel.

    The minimum over a dense grid of the feasible range, refined by golden
    section; returns 0 whenever the intrinsic link noise alone already
    minimizes the budget. The request's scalar budget (_request_budget)
    is set up once; _screen_budget evaluates the whole grid at once, then
    the scalar objective re-evaluates the points the screen puts within
    _SCREEN_MARGIN of its minimum (none when no screened N_F is finite).
    The first of them with the smallest scalar N_F is the grid minimum:
    the point a scalar scan of every grid point would pick. The refinement
    is a scalar golden-section search on the two grid steps around it:
    each step keeps the surviving interior point with its N_F and
    evaluates only the new one. The final comparison with zero noise
    reuses the re-check's result at grid[0] = 0 when there is one.

    When given a list as `budget`, it appends the budget's result at the
    returned noise, if that noise is feasible, so that plan() need not
    evaluate it again.
    """
    if channel.P_flip >= sec.Q_t:
        raise InfeasibleError(
            "optimal_extra_noise",
            f"intrinsic QBER {channel.P_flip:.6f} >= abort threshold {sec.Q_t}")
    budget_at = _request_budget(channel, m_f, kind, sec, g)

    def objective(p_extra: float) -> tuple:
        """The budget's result at p_extra; (inf,) where infeasible."""
        try:
            return budget_at(p_extra)
        except InfeasibleError:
            return (math.inf,)

    e_max = max(_max_extra_noise(channel.P_flip, sec) - 1e-9, 0.0)
    n_grid = int(e_max / _NOISE_GRID_STEP) + 1
    # A float stop makes a float grid: no int-to-float cast in the product.
    grid = np.minimum(np.arange(n_grid + 1.0) * _NOISE_GRID_STEP, e_max)
    screen = _screen_budget(channel, m_f, kind, grid, sec, g)
    cut = screen.min() * (1.0 + _SCREEN_MARGIN)
    best_i, best_v = 0, math.inf
    rechecked = {}          # grid index -> objective there
    for i in (screen <= cut).nonzero()[0].tolist() if cut < math.inf else ():
        rechecked[i] = objective(float(grid[i]))
        if rechecked[i][0] < best_v:
            best_i, best_v = i, rechecked[i][0]
    if best_v == math.inf:
        raise InfeasibleError("optimal_extra_noise", "no feasible noise level")

    lo = max((best_i - 1) * _NOISE_GRID_STEP, 0.0)
    hi = min((best_i + 1) * _NOISE_GRID_STEP, e_max)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = objective(x1)[0], objective(x2)[0]
    while hi - lo > _NOISE_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = objective(x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = objective(x2)[0]
    e_opt = 0.5 * (lo + hi)
    # grid[0] is 0: the zero-noise comparison reuses its re-check, if any.
    at_zero, at_opt = rechecked.get(0) or objective(0.0), objective(e_opt)
    if at_zero[0] <= at_opt[0]:
        e_opt, at_opt = 0.0, at_zero
    if budget is not None and len(at_opt) > 1:
        budget.append(at_opt)
    return e_opt


def fixed_n_strategy(channel: ChannelDerived, kind: str, n_pulses: int,
                     p_extra: float, sec: SecurityParams,
                     g: float = DEFAULT_FRACTION) -> Strategy:
    """Resolve a strategy for a run of n_pulses that was not sized by plan().

    The fraction rule needs only g; count and sqrt resolve their constant
    from the accuracy floor A_0 at the effective flip, evaluated at this N.
    A link that sifts nothing (p = 0) is infeasible under every rule.
    """
    check_p_extra(p_extra)
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    try:
        n_sifted = n_pulses * channel.p
    except OverflowError:
        # Decimal writes an int of any size without converting it to float;
        # it is imported here, on the overflow path only, to keep it out of
        # start-up.
        from decimal import Decimal
        raise InfeasibleError(
            "fixed_n_strategy",
            f"N = {Decimal(n_pulses):.3e} pulses overflow a float") from None
    if n_sifted == 0.0:
        raise InfeasibleError(
            "fixed_n_strategy", "a run of N pulses needs sifted bits, and "
            "the link delivers none (p = 0)")
    # The fraction rule has no A_0 to compute, and none exists at a zero
    # effective flip (d = 0 without noise).
    a0_bits = (0.0 if kind == FRACTION
               else a0(effective_flip(channel.P_flip, p_extra), sec))
    if a0_bits == math.inf:
        raise InfeasibleError("a0", "accuracy floor A_0 overflows a float")
    return _resolve_strategy(kind, a0_bits, n_sifted, g)


def success_probability(channel: ChannelDerived, n_pulses: int,
                        strategy: Strategy, p_extra: float,
                        sec: SecurityParams) -> float:
    """Probability that the run survives parameter estimation.

    The inferred QBER is normal around the intrinsic P_flip with standard
    deviation sigma_Qhat / (1 - 2*P_extra), the linear map that undoes the
    controlled randomization.

    Only the QBER abort is modeled. A run also aborts with "no-signal"
    (fewer than two bits sifted) or "key-too-short" (too few bits left
    after the sample to reconcile); those aborts, which occur near d_lim
    or at small N, are outside this forecast.
    """
    check_p_extra(p_extra)
    p_hat = effective_flip(channel.P_flip, p_extra)
    stats = strategy_stats(n_pulses, channel.p, p_hat, strategy)
    sigma_q = stats.std_Qhat / (1.0 - 2.0 * p_extra)
    if sigma_q == 0.0:
        return 1.0 if channel.P_flip < sec.Q_t else 0.0
    return normal_cdf((sec.Q_t - channel.P_flip) / sigma_q)


def expected_output(channel: ChannelDerived, n_pulses: int,
                    strategy: Strategy, p_extra: float,
                    sec: SecurityParams) -> tuple[int, float]:
    """Mean and standard deviation of the final key length at fixed N."""
    p_hat = effective_flip(channel.P_flip, p_extra)
    stats = strategy_stats(n_pulses, channel.p, p_hat, strategy)
    rate = 1.0 - (1.0 + sec.f_max) * binary_entropy(p_hat)
    if rate <= 0.0:
        return 0, 0.0
    k = stats.mean_L * rate
    mean_m = output_length_fixed_point(k, sec.eps_max)
    return mean_m, rate * stats.std_L


def kbr_stats(n_pulses: int, p_success: float, mean_m: float,
              std_m: float) -> tuple[float, float]:
    """Mean and standard deviation of the key bit rate (bits per pulse).

    The rate is a mixture: M/N with probability p_success, 0 otherwise,
    where M has the mean and standard deviation of expected_output().
    """
    mean = p_success * mean_m / n_pulses
    var = p_success * std_m ** 2 + p_success * (1.0 - p_success) * mean_m ** 2
    return mean, math.sqrt(var) / n_pulses


def forecast(channel: ChannelDerived, n_pulses: int, strategy: Strategy,
             p_extra: float, sec: SecurityParams
             ) -> tuple[int, float, float, float, float]:
    """What a run of n_pulses on this channel should deliver.

    Returns (mean_m, std_m, P_success, kbr_mean, kbr_std): the final key
    length's mean and standard deviation, the probability of surviving
    parameter estimation, and the key bit rate's mean and standard
    deviation. Near d = 0, or at a huge N, a finite N can still give a
    key length whose square overflows a float: like an overflowing
    budget, that is infeasible.

    It is expected_output, success_probability and kbr_stats, called in
    that order, so it checks its inputs in theirs.
    """
    try:
        mean_m, std_m = expected_output(channel, n_pulses, strategy, p_extra,
                                        sec)
        p_succ = success_probability(channel, n_pulses, strategy, p_extra,
                                     sec)
        kbr_mean, kbr_std = kbr_stats(n_pulses, p_succ, mean_m, std_m)
    except OverflowError:
        from decimal import Decimal     # see fixed_n_strategy
        raise InfeasibleError(
            "forecast", "the key-length forecasts at N_F = "
            f"{Decimal(n_pulses):.3e} overflow a float") from None
    return mean_m, std_m, p_succ, kbr_mean, kbr_std


def plan(d: float, m_f: int, kind: str, link: LinkParams,
         sec: SecurityParams, g: float = DEFAULT_FRACTION,
         p_extra: Optional[float] = None) -> Plan:
    """Full sizing for one request: noise optimum, budget, and forecasts.

    Passing p_extra explicitly bypasses the noise optimization (used to
    reproduce fixed-noise baselines); it must lie in [0, 1/2).
    """
    if m_f < 1:
        raise ValueError(f"m_F must be >= 1, got {m_f}")
    channel = channel_at(link, d)
    budget: list = []
    if p_extra is None:
        p_extra = optimal_extra_noise(channel, m_f, kind, sec, g, budget)
    else:
        check_p_extra(p_extra)
    n_f_real, n_lim, a0_bits, l_f_bits = budget[0] if budget else (
        _request_budget(channel, m_f, kind, sec, g)(p_extra))
    strategy = _resolve_strategy(kind, a0_bits, n_lim, g)
    n_f = math.ceil(n_f_real)
    mean_m, std_m, p_succ, kbr_mean, kbr_std = forecast(
        channel, n_f, strategy, p_extra, sec)
    return Plan(d=d, m_F=m_f, strategy=strategy, N_F=n_f,
                P_extra_opt=p_extra, l_F=l_f_bits, A_0=a0_bits, n_lim=n_lim,
                expected_m=mean_m, expected_m_std=std_m,
                expected_KBR=kbr_mean, KBR_std=kbr_std, P_success=p_succ)
