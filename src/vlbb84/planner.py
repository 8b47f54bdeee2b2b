"""Reverse analysis: size the quantum phase for a requested output length.

Given a link distance and a target final-key length m_F, compute the
minimum pulse count N_F and the artificial-noise level that minimizes it,
for each of three parameter-estimation strategies:

  fraction  g(n) = g         a constant fraction of the sifted key
  count     g(n) = A / n     a constant number of sifted bits
  sqrt      g(n) = B / n**.5 a sample growing like sqrt(n)

The chain is: accuracy condition -> sample-size floor A_0, target length
-> post-sifting requirement l_F, strategy moments -> N_F lower bounds,
then a scan over the artificial noise to minimize N_F.

plan() is the only entry that takes a distance and a LinkParams: it
derives the channel once, and every function below it (budget, noise
optimum, strategy resolution at fixed N, forecasts) takes that
ChannelDerived instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .link_model import (ChannelDerived, LinkParams, SecurityParams,
                         channel_at, effective_flip)
from .numerics import (binary_entropy, normal_cdf,
                       output_length_fixed_point, solve_bracketed)

FRACTION = "fraction"
COUNT = "count"
SQRT = "sqrt"
STRATEGY_KINDS = (FRACTION, COUNT, SQRT)

DEFAULT_FRACTION = 1.0 / 3.0

# Artificial-noise search: grid spacing of the scan, then the width at
# which the golden-section refinement stops.
_NOISE_GRID_STEP = 1e-4
_NOISE_TOL = 1e-6


class InfeasibleError(ValueError):
    """A sizing or protocol stage cannot be satisfied; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


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
        if self.kind == FRACTION and not 0.0 < self.param <= 0.5:
            raise ValueError(f"fraction g must be in (0, 1/2], got {self.param}")
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
    mean_Qhat: float     # its mean (the effective flip probability)


@dataclass(frozen=True)
class Plan:
    """Sizing output for one (distance, m_F, strategy) request."""

    strategy: Strategy
    N_F: int
    P_extra_opt: float
    l_F: float
    A_0: float
    n_lim: Optional[float]      # sqrt strategy only
    expected_m: int
    expected_m_std: float
    expected_kbr: float
    kbr_std: float
    P_success: float
    d: float
    m_F: int

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "m_F": self.m_F,
            "strategy": {"kind": self.strategy.kind, "param": self.strategy.param},
            "N_F": self.N_F,
            "P_extra_opt": self.P_extra_opt,
            "l_F": self.l_F,
            "A_0": self.A_0,
            "n_lim": self.n_lim,
            "expected_m": self.expected_m,
            "expected_m_std": self.expected_m_std,
            "expected_KBR": self.expected_kbr,
            "KBR_std": self.kbr_std,
            "P_success": self.P_success,
        }


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


def l_f(m_f: int, p_hat: float, sec: SecurityParams) -> float:
    """Sifted-key length needed after estimation to extract m_f bits."""
    if m_f < 1:
        raise ValueError(f"m_f must be >= 1, got {m_f}")
    den = 1.0 - (1.0 + sec.f_max) * binary_entropy(p_hat)
    if den <= 0.0:
        raise InfeasibleError(
            "l_f", f"effective flip {p_hat:.6f} at or above the abort threshold")
    return (m_f + 6.0 + 4.0 * math.log2(m_f / sec.eps_max)) / den


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
                          std_Qhat=std_qhat, mean_Qhat=p_hat)


def _sqrt_sample_limit(l_f_bits: float, a0_bits: float, p: float,
                       c_f: float) -> float:
    """Largest root x of the sqrt-strategy feasibility equation

        x**1.5 - C_F*sqrt(1-p)*x - (l_F + A_0)*sqrt(x)
            + (A_0*C_F/2)*sqrt(1-p) = 0,

    solved as a cubic in u = sqrt(x) by bisection from the rightmost
    stationary point to the Cauchy bound.
    """
    ca = -c_f * math.sqrt(1.0 - p)
    cb = -(l_f_bits + a0_bits)
    cc = a0_bits * c_f / 2.0 * math.sqrt(1.0 - p)

    def poly(u: float) -> float:
        return ((u + ca) * u + cb) * u + cc

    # Rightmost stationary point of the cubic; the largest real root lies
    # to its right whenever poly dips nonpositive there.
    u_stat = (-ca + math.sqrt(ca * ca - 3.0 * cb)) / 3.0 if cb < 0.0 else -ca / 1.5
    if poly(u_stat) > 0.0:
        raise InfeasibleError("photon_budget", "no positive sample-limit root")
    hi = 1.0 + max(abs(ca), abs(cb), abs(cc))
    root = solve_bracketed(poly, u_stat, hi, tol=1e-12, max_iter=200)
    return root.value ** 2


def _budget_from_requirements(kind: str, p: float, a0_bits: float,
                              l_f_bits: float, sec: SecurityParams,
                              g: float = DEFAULT_FRACTION):
    """Real-valued N_F from the two requirements (sample floor, key floor).

    Returns (N_F, n_lim); n_lim is None except for 'sqrt'.
    """
    cf2 = sec.C_F ** 2
    one_p = 1.0 - p
    if kind == FRACTION:
        n_acc = a0_bits / (g * p)
        n_len = cf2 / (4.0 * p) * (
            math.sqrt(one_p)
            + math.sqrt(one_p + 4.0 * l_f_bits / (cf2 * (1.0 - g)))) ** 2
        return max(n_acc, n_len), None
    if kind == COUNT:
        n_acc = 2.0 * a0_bits / p
        n_len = cf2 / (4.0 * p) * (
            math.sqrt(one_p)
            + math.sqrt(one_p + 4.0 * (a0_bits + l_f_bits) / cf2)) ** 2
        return max(n_acc, n_len), None
    if kind == SQRT:
        n_lim = _sqrt_sample_limit(l_f_bits, a0_bits, p, sec.C_F)
        return max(4.0 * a0_bits ** 2 / n_lim, n_lim) / p, n_lim
    raise ValueError(f"unknown strategy kind {kind!r}")


def _budget_real(channel: ChannelDerived, m_f: int, kind: str,
                 p_extra: float, sec: SecurityParams,
                 g: float = DEFAULT_FRACTION):
    """Real-valued N_F before integer rounding.

    Returns (N_F, n_lim, A_0, l_F).
    """
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
    n_f, n_lim = _budget_from_requirements(kind, p, a0_bits, l_f_bits, sec, g)
    return n_f, n_lim, a0_bits, l_f_bits


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

    Dense grid scan over the feasible range followed by golden-section
    refinement; returns 0 whenever the intrinsic link noise alone already
    minimizes the budget.
    """
    if channel.P_flip >= sec.Q_t:
        raise InfeasibleError(
            "optimal_extra_noise",
            f"intrinsic QBER {channel.P_flip:.6f} >= abort threshold {sec.Q_t}")
    if kind == FRACTION:
        Strategy(FRACTION, g)   # rejects g outside (0, 1/2] before the search

    def objective(p_extra: float) -> float:
        try:
            return _budget_real(channel, m_f, kind, p_extra, sec, g)[0]
        except InfeasibleError:
            return math.inf

    e_max = max(_max_extra_noise(channel.P_flip, sec) - 1e-9, 0.0)
    n_grid = int(e_max / _NOISE_GRID_STEP) + 1
    best_i, best_v = 0, objective(0.0)
    for i in range(1, n_grid + 1):
        e = min(i * _NOISE_GRID_STEP, e_max)
        v = objective(e)
        if v < best_v:
            best_i, best_v = i, v
    if best_v == math.inf:
        raise InfeasibleError("optimal_extra_noise", "no feasible noise level")

    lo = max((best_i - 1) * _NOISE_GRID_STEP, 0.0)
    hi = min((best_i + 1) * _NOISE_GRID_STEP, e_max)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > _NOISE_TOL:
        x1 = hi - ratio * (hi - lo)
        x2 = lo + ratio * (hi - lo)
        if objective(x1) <= objective(x2):
            hi = x2
        else:
            lo = x1
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
    # The fraction rule has no A_0 to compute, and none exists at a zero
    # effective flip (d = 0 without noise).
    a0_bits = (0.0 if kind == FRACTION
               else a0(effective_flip(channel.P_flip, p_extra), sec))
    return _resolve_strategy(kind, a0_bits, n_pulses * channel.p, g)


def success_probability(channel: ChannelDerived, n_pulses: int,
                        strategy: Strategy, p_extra: float,
                        sec: SecurityParams) -> float:
    """Probability that the run survives parameter estimation.

    The inferred QBER is normal around the intrinsic P_flip with standard
    deviation sigma_Qhat / (1 - 2*P_extra), the linear map that undoes the
    controlled randomization.
    """
    if not 0.0 <= p_extra < 0.5:
        raise ValueError(f"p_extra must be in [0, 1/2), got {p_extra}")
    p_hat = effective_flip(channel.P_flip, p_extra)
    stats = strategy_stats(n_pulses, channel.p, p_hat, strategy)
    if stats.mean_sample <= 0.0:
        raise InfeasibleError("success_probability", "zero estimation sample")
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


def plan(d: float, m_f: int, kind: str, link: LinkParams,
         sec: SecurityParams, g: float = DEFAULT_FRACTION,
         p_extra: Optional[float] = None) -> Plan:
    """Full sizing for one request: noise optimum, budget, and forecasts.

    Passing p_extra explicitly bypasses the noise optimization (used to
    reproduce fixed-noise baselines).
    """
    if m_f < 1:
        raise ValueError(f"m_F must be >= 1, got {m_f}")
    channel = channel_at(link, d)
    if p_extra is None:
        p_extra = optimal_extra_noise(channel, m_f, kind, sec, g)
    n_f_real, n_lim, a0_bits, l_f_bits = _budget_real(
        channel, m_f, kind, p_extra, sec, g)
    strategy = _resolve_strategy(kind, a0_bits, n_lim, g)
    n_f = math.ceil(n_f_real)
    mean_m, std_m = expected_output(channel, n_f, strategy, p_extra, sec)
    p_succ = success_probability(channel, n_f, strategy, p_extra, sec)
    kbr_mean, kbr_std = kbr_stats(n_f, p_succ, mean_m, std_m)
    return Plan(strategy=strategy, N_F=n_f, P_extra_opt=p_extra,
                l_F=l_f_bits, A_0=a0_bits, n_lim=n_lim,
                expected_m=mean_m, expected_m_std=std_m,
                expected_kbr=kbr_mean, kbr_std=kbr_std,
                P_success=p_succ, d=d, m_F=m_f)
