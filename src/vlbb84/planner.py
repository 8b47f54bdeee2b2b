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
that evaluates one new noise level per step. The scalar budget and the
screen share the strategies' N_F formulas, one solver of the sqrt
strategy's sample-limit cubic (its closed-form largest root) and one
rule, that an N_F which is not a finite float is infeasible. The scalar
path runs them on Python floats with libm and builtins, the screen on
arrays with numpy, so the two differ only by libm-vs-numpy rounding of
log2, pow and (for sqrt) arccos and cos.

plan() is the only entry that takes a distance and a LinkParams: it
derives the channel once, and every function below it (budget, noise
optimum, strategy resolution at fixed N, forecasts) takes that
ChannelDerived instead.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

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
# differs from it only by numpy-vs-libm rounding of log2, pow and (for
# sqrt) arccos and cos, ~1e-14 relative, so the scalar minimum is always
# among them.
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
    return (1.0 / (g * g)) * (1.0 / p_hat - 1.0)


def _extraction_floor(m_f: int, sec: SecurityParams) -> float:
    """Key length needed to extract m_f bits from an error-free key."""
    if m_f < 1:
        raise ValueError(f"m_f must be >= 1, got {m_f}")
    return m_f + 6.0 + 4.0 * math.log2(m_f / sec.eps_max)


def l_f(m_f: int, p_hat: float, sec: SecurityParams) -> float:
    """Sifted-key length needed after estimation to extract m_f bits."""
    floor = _extraction_floor(m_f, sec)
    den = 1.0 - (1.0 + sec.f_max) * binary_entropy(p_hat)
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


class _Ops(NamedTuple):
    """The elementwise functions the budget formulas and the sqrt solver
    call: on floats (_FLOAT_OPS) or on arrays (_ARRAY_OPS)."""

    sqrt: Callable
    arccos: Callable
    cos: Callable
    maximum: Callable
    minimum: Callable
    where: Callable


# libm and builtins: a float call stays on Python floats. The solver passes
# the value first to max and min, so a nan propagates as through
# np.maximum and np.minimum.
_FLOAT_OPS = _Ops(math.sqrt, math.acos, math.cos, max, min,
                  lambda cond, a, b: a if cond else b)
_ARRAY_OPS = _Ops(np.sqrt, np.arccos, np.cos, np.maximum, np.minimum,
                  np.where)


def _sqrt_sample_limit(l_f_bits, a0_bits, p: float, c_f: float,
                       ops: _Ops = _FLOAT_OPS):
    """Largest root x of the sqrt-strategy feasibility equation

        x**1.5 - C_F*sqrt(1-p)*x - (l_F + A_0)*sqrt(x)
            + (A_0*C_F/2)*sqrt(1-p) = 0,

    elementwise over float requirements (with _FLOAT_OPS, a Python float)
    or array ones (with _ARRAY_OPS); inf where it has no positive root.

    In u = sqrt(x) it is the cubic u**3 + ca*u**2 + cb*u + cc with
    cb <= 0 <= cc, so its stationary points lie on either side of u = 0.
    It has a positive root iff it is <= 0 at the right one, u_stat, and
    then it has three real roots: the largest comes from the
    trigonometric form.

    Huge or non-finite requirements overflow r*r*r or give nan, which the
    caller treats as an infeasible N_F: on floats r*r*r is inf and inf/inf
    nan, and an array call runs under the screen's np.errstate.
    """
    ca = -c_f * math.sqrt(1.0 - p)
    cb = -(l_f_bits + a0_bits)
    cc = a0_bits * c_f / 2.0 * math.sqrt(1.0 - p)
    u_stat = (-ca + ops.sqrt(ca * ca - 3.0 * cb)) / 3.0
    no_root = ((u_stat + ca) * u_stat + cb) * u_stat + cc > 0.0
    shift = ca / 3.0
    p3 = (cb - ca * shift) / 3.0
    q2 = (cc + shift * (2.0 * shift * shift - cb)) / 2.0
    r = ops.sqrt(-p3)
    cos_3theta = ops.minimum(ops.maximum(-q2 / (r * r * r), -1.0), 1.0)
    u = 2.0 * r * ops.cos(ops.arccos(cos_3theta) / 3.0) - shift
    return ops.where(no_root, math.inf, u * u)


def _budget_from_requirements(kind: str, p: float, a0_bits, l_f_bits,
                              sec: SecurityParams, g: float = DEFAULT_FRACTION,
                              ops: _Ops = _FLOAT_OPS):
    """Real-valued N_F from the two requirements (sample floor, key floor).

    Returns (N_F, n_lim); n_lim is None except for 'sqrt'. The scalar
    budget calls it on floats with _FLOAT_OPS (libm and builtins), the
    noise screen on arrays with _ARRAY_OPS (numpy). On the same
    requirements the two differ only by libm-vs-numpy rounding of pow and,
    for sqrt, of arccos and cos.
    """
    sqrt, maximum = ops.sqrt, ops.maximum
    cf2 = sec.C_F ** 2
    one_p = 1.0 - p
    if kind == FRACTION:
        n_acc = a0_bits / (g * p)
        n_len = cf2 / (4.0 * p) * (
            sqrt(one_p)
            + sqrt(one_p + 4.0 * l_f_bits / (cf2 * (1.0 - g)))) ** 2
        return maximum(n_acc, n_len), None
    if kind == COUNT:
        n_acc = 2.0 * a0_bits / p
        n_len = cf2 / (4.0 * p) * (
            sqrt(one_p)
            + sqrt(one_p + 4.0 * (a0_bits + l_f_bits) / cf2)) ** 2
        return maximum(n_acc, n_len), None
    if kind == SQRT:
        n_lim = _sqrt_sample_limit(l_f_bits, a0_bits, p, sec.C_F, ops)
        return maximum(4.0 * a0_bits ** 2 / n_lim, n_lim) / p, n_lim
    raise ValueError(f"unknown strategy kind {kind!r}")


def _budget_real(channel: ChannelDerived, m_f: int, kind: str,
                 p_extra: float, sec: SecurityParams,
                 g: float = DEFAULT_FRACTION):
    """Real-valued N_F before integer rounding.

    Returns (N_F, n_lim, A_0, l_F). An N_F that is not a finite float is
    infeasible: that covers a sqrt sample limit with no positive root, and
    requirements so large (a subnormal flip or g) that the budget
    overflows or divides by an underflowed g*p.
    """
    if kind == FRACTION:
        _check_fraction(g)
    p = channel.p
    if p <= 0.0:
        raise InfeasibleError("photon_budget", "link delivers no signal (p = 0)")
    p_hat = effective_flip(channel.P_flip, p_extra)
    if p_hat <= 0.0:
        raise InfeasibleError(
            "photon_budget", "effective flip is 0; accuracy condition diverges")
    if p_hat >= sec.Q_t:
        raise InfeasibleError(
            "photon_budget",
            f"effective flip {p_hat:.6f} >= abort threshold {sec.Q_t}")
    a0_bits = a0(p_hat, sec)
    l_f_bits = l_f(m_f, p_hat, sec)
    try:
        n_f, n_lim = _budget_from_requirements(kind, p, a0_bits, l_f_bits,
                                               sec, g)
    except (OverflowError, ZeroDivisionError):
        n_f = math.inf
    if not math.isfinite(n_f):
        raise InfeasibleError("photon_budget", "no finite N_F meets the "
                              "sample and key-length requirements")
    return n_f, n_lim, a0_bits, l_f_bits


def _screen_budget(channel: ChannelDerived, m_f: int, kind: str,
                   p_extra: np.ndarray, sec: SecurityParams,
                   g: float) -> np.ndarray:
    """_budget_real's N_F at every noise level of the array p_extra, inf
    where _budget_real raises InfeasibleError.

    Its array prelude makes the same feasibility comparisons; the N_F
    formulas and the sqrt solver are _budget_from_requirements' own, run
    with _ARRAY_OPS under this function's np.errstate, and a non-finite
    N_F is infeasible as in the scalar. It differs from the scalar N_F
    only where numpy's log2, pow and (for sqrt) arccos and cos round
    differently from libm's, ~1e-14 relative: enough to rank noise
    levels, not to replace the scalar.
    """
    p = channel.p
    if p <= 0.0:
        return np.full(p_extra.shape, math.inf)
    p_flip = channel.P_flip
    p_hat = p_flip + p_extra - 2.0 * p_flip * p_extra
    # p_hat = 0 divides by zero and takes log2(0), and extreme inputs
    # overflow, the sqrt solver's r*r*r among them; the non-finite N_F they
    # give is infeasible.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gam = gamma(p_hat, sec)
        a0_bits = (1.0 / (gam * gam)) * (1.0 / p_hat - 1.0)
        entropy = (-p_hat * np.log2(p_hat)
                   - (1.0 - p_hat) * np.log2(1.0 - p_hat))
        den = 1.0 - (1.0 + sec.f_max) * entropy
        l_f_bits = _extraction_floor(m_f, sec) / den
        infeasible = (p_hat <= 0.0) | (p_hat >= sec.Q_t) | (den <= 0.0)
        n_f, _ = _budget_from_requirements(kind, p, a0_bits, l_f_bits, sec, g,
                                           _ARRAY_OPS)
    return np.where(infeasible | ~np.isfinite(n_f), math.inf, n_f)


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
    n_f, n_lim, a0_bits, _ = _budget_real(channel, m_f, kind, p_extra, sec, g)
    return math.ceil(n_f), _resolve_strategy(kind, a0_bits, n_lim, g), n_lim


def _max_extra_noise(p_flip: float, sec: SecurityParams) -> float:
    """Largest artificial noise keeping the effective flip below Q_t."""
    return (sec.Q_t - p_flip) / (1.0 - 2.0 * p_flip)


def optimal_extra_noise(channel: ChannelDerived, m_f: int, kind: str,
                        sec: SecurityParams,
                        g: float = DEFAULT_FRACTION) -> float:
    """Artificial-noise level minimizing N_F on this channel.

    The minimum over a dense grid of the feasible range, refined by golden
    section; returns 0 whenever the intrinsic link noise alone already
    minimizes the budget. _screen_budget evaluates the whole grid at once,
    then the scalar objective re-evaluates the points the screen puts
    within _SCREEN_MARGIN of its minimum. The first of them with the
    smallest scalar N_F is the grid minimum: the point a scalar scan of
    every grid point would pick. The refinement is a scalar golden-section
    search on the two grid steps around it: each step keeps the surviving
    interior point with its N_F and evaluates only the new one.
    """
    if channel.P_flip >= sec.Q_t:
        raise InfeasibleError(
            "optimal_extra_noise",
            f"intrinsic QBER {channel.P_flip:.6f} >= abort threshold {sec.Q_t}")
    if kind == FRACTION:
        _check_fraction(g)

    def objective(p_extra: float) -> float:
        try:
            return _budget_real(channel, m_f, kind, p_extra, sec, g)[0]
        except InfeasibleError:
            return math.inf

    e_max = max(_max_extra_noise(channel.P_flip, sec) - 1e-9, 0.0)
    n_grid = int(e_max / _NOISE_GRID_STEP) + 1
    grid = np.minimum(np.arange(n_grid + 1) * _NOISE_GRID_STEP, e_max)
    screen = _screen_budget(channel, m_f, kind, grid, sec, g)
    ranked = screen[np.isfinite(screen)]
    cut = ranked.min() * (1.0 + _SCREEN_MARGIN) if ranked.size else -math.inf
    best_i, best_v = 0, math.inf
    for i in np.flatnonzero(screen <= cut).tolist():
        v = objective(float(grid[i]))
        if v < best_v:
            best_i, best_v = i, v
    if best_v == math.inf:
        raise InfeasibleError("optimal_extra_noise", "no feasible noise level")

    lo = max((best_i - 1) * _NOISE_GRID_STEP, 0.0)
    hi = min((best_i + 1) * _NOISE_GRID_STEP, e_max)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = objective(x1), objective(x2)
    while hi - lo > _NOISE_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = objective(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = objective(x2)
    e_opt = 0.5 * (lo + hi)
    if objective(0.0) <= objective(e_opt):
        return 0.0
    return e_opt


def fixed_n_strategy(channel: ChannelDerived, kind: str, n_pulses: int,
                     p_extra: float, sec: SecurityParams,
                     g: float = DEFAULT_FRACTION) -> Strategy:
    """Resolve a strategy for a run of n_pulses that was not sized by plan().

    The fraction rule needs only g; count and sqrt resolve their constant
    from the accuracy floor A_0 at the effective flip, evaluated at this N.
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
    # The fraction rule has no A_0 to compute, and none exists at a zero
    # effective flip (d = 0 without noise).
    a0_bits = (0.0 if kind == FRACTION
               else a0(effective_flip(channel.P_flip, p_extra), sec))
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
    """
    try:
        mean_m, std_m = expected_output(channel, n_pulses, strategy, p_extra,
                                        sec)
        p_succ = success_probability(channel, n_pulses, strategy, p_extra, sec)
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
    if p_extra is None:
        p_extra = optimal_extra_noise(channel, m_f, kind, sec, g)
    else:
        check_p_extra(p_extra)
    n_f_real, n_lim, a0_bits, l_f_bits = _budget_real(
        channel, m_f, kind, p_extra, sec, g)
    strategy = _resolve_strategy(kind, a0_bits, n_lim, g)
    n_f = math.ceil(n_f_real)
    mean_m, std_m, p_succ, kbr_mean, kbr_std = forecast(
        channel, n_f, strategy, p_extra, sec)
    return Plan(d=d, m_F=m_f, strategy=strategy, N_F=n_f,
                P_extra_opt=p_extra, l_F=l_f_bits, A_0=a0_bits, n_lim=n_lim,
                expected_m=mean_m, expected_m_std=std_m,
                expected_KBR=kbr_mean, KBR_std=kbr_std, P_success=p_succ)
