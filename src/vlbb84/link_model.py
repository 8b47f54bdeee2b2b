"""Physical model of a single BB84 fiber link.

All closed-form quantities derived from the device constants and the
distance live here: propagation timing, dark-count and loss probabilities,
depolarization, the per-pulse sift-survival probability p, the intrinsic
QBER of the link, and the source repetition time with its lower bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

from .numerics import solve_bracketed

SPEED_OF_LIGHT_KM_S = 299792.458
DEFAULT_FIBER_SPEED_KM_S = (2.0 / 3.0) * SPEED_OF_LIGHT_KM_S
# limit_distance searches (0, LIMIT_SEARCH_MAX_KM] for the limit distance.
LIMIT_SEARCH_MAX_KM = 200.0


def _require_finite(params) -> None:
    """Reject NaN and infinite fields: NaN fails every comparison silently
    and inf passes one-sided bounds, so the range checks miss both."""
    for f in fields(params):
        v = getattr(params, f.name)
        if not math.isfinite(v):
            raise ValueError(f"{f.name} must be finite, got {v}")


def _from_json(cls, doc: dict | str):
    """Build from a JSON document; missing fields keep their defaults."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError(f"{cls.__name__} document must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
    values = {}
    for k, v in doc.items():
        # float() takes numeric strings, and bools as 0 and 1; but true and
        # false are no more numbers than null, arrays and objects are.
        try:
            if isinstance(v, bool):
                raise TypeError
            values[k] = float(v)
        except (TypeError, ValueError):
            raise ValueError(f"{k} must be a number, got {v!r}") from None
    return cls(**values)


@dataclass(frozen=True)
class LinkParams:
    """Device and fiber constants, SI units (seconds, km, 1/s, dB/km).

    Defaults are the reference parameter set used throughout: a faint-laser
    source with eta_e = 0.2, a detector with eta_d = 0.6 and 25 Hz dark
    counts, 0.2 dB/km fiber at 2c/3 signal speed, 2% timing jitter with a
    coverage factor of 3.
    """

    eta_e: float = 0.2            # emission efficiency
    eta_d: float = 0.6            # detection efficiency
    R: float = 0.2                # fiber attenuation, dB/km
    v_f: float = DEFAULT_FIBER_SPEED_KM_S   # signal speed, km/s
    std: float = 0.02             # timing jitter as a fraction of tau
    R_depolar: float = 100.0      # depolarizing rate, 1/s
    R_DCR: float = 25.0           # dark count rate, 1/s
    DD: float = 0.5e-9            # detection delay, s
    DT: float = 100e-9            # detector dead time, s
    GD_A: float = 1e-9            # Alice gate duration, s
    GD_B: float = 1e-9            # Bob gate duration, s
    C: float = 3.0                # jitter coverage factor

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in ("eta_e", "eta_d", "std"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("R", "R_depolar", "R_DCR", "DD", "DT", "GD_A", "GD_B"):
            v = getattr(self, name)
            if v < 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if self.C <= 0.0:
            raise ValueError(f"C must be > 0, got {self.C}")
        if self.v_f <= 0.0:
            raise ValueError(f"v_f must be > 0, got {self.v_f}")

    from_json = classmethod(_from_json)


@dataclass(frozen=True)
class SecurityParams:
    """Protocol-level thresholds and tuning constants."""

    Q_t: float = 0.091        # QBER abort threshold
    f_max: float = 1.27       # reconciliation efficiency bound
    eps_max: float = 0.01     # extractor security parameter
    C_F: float = 3.0          # output-length confidence factor (in sigmas)
    eps: float = 0.1          # estimation accuracy base
    alpha: float = 3.0        # accuracy relaxation amplitude
    beta: float = 20.0        # accuracy relaxation decay

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.Q_t < 0.5:
            raise ValueError(f"Q_t must be in (0, 1/2), got {self.Q_t}")
        if self.f_max < 1.0:
            raise ValueError(f"f_max must be >= 1, got {self.f_max}")
        if not 0.0 < self.eps_max < 1.0:
            raise ValueError(f"eps_max must be in (0, 1), got {self.eps_max}")
        if self.C_F <= 0.0:
            raise ValueError(f"C_F must be > 0, got {self.C_F}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        # gamma = eps * (1 + alpha * 10**(-beta * p_hat)) is monotone in
        # p_hat, so it is positive on [0, 1/2] iff it is at both ends; beta
        # >= -600 keeps the power a float there.
        if self.beta < -600.0:
            raise ValueError(f"beta must be >= -600, got {self.beta}")
        ends = (self.alpha, self.alpha * 10.0 ** (-self.beta / 2.0))
        if min(ends) <= -1.0:
            raise ValueError(
                "alpha and beta must keep 1 + alpha * 10**(-beta * p_hat) > 0 "
                f"for p_hat in [0, 1/2], got alpha={self.alpha}, "
                f"beta={self.beta}")
        # The accuracy floor divides by gamma^2, which must stay finite.
        largest = self.eps * (1.0 + max(ends))
        if not math.isfinite(largest * largest):
            raise ValueError(
                "eps, alpha and beta must keep gamma = eps * (1 + alpha * "
                "10**(-beta * p_hat)) squared finite for p_hat in [0, 1/2], "
                f"got eps={self.eps}, alpha={self.alpha}, beta={self.beta}")

    from_json = classmethod(_from_json)


@dataclass(frozen=True)
class ChannelDerived:
    """Every derived link quantity for one distance."""

    tau: float          # mean propagation time, s
    delta_tau: float    # jitter standard deviation, s
    window: float       # detector window C * delta_tau, s
    P_DCR: float        # dark count probability per window
    P_0: float          # emission/detection loss probability
    P_loss: float       # total photon loss probability
    P_depolar: float    # depolarization probability
    p: float            # sift-survival probability per pulse
    P_flip: float       # intrinsic QBER of sifted bits
    s: float            # chosen repetition time, s
    s_lim: float        # synchronization lower bound on s, s

    def as_dict(self) -> dict:
        return asdict(self)


def channel_at(link: LinkParams, d: float) -> ChannelDerived:
    """Evaluate all closed-form link quantities at distance d (km).

    The intrinsic QBER combines three detection events that can produce a
    sifted bit: a dark count registered before the photon, the photon
    registered after depolarization, and the clean photon. Only the first
    two flip the bit (each with probability 1/2), giving

        P_flip = [P_DCR/4 * (1 + P_loss)
                  + P_depolar/2 * (1 - P_DCR/2) * (1 - P_loss)]
                 / (1 - P_loss * (1 - P_DCR)).
    """
    if not math.isfinite(d):
        raise ValueError(f"d must be finite, got {d}")
    if d < 0.0:
        raise ValueError(f"d must be >= 0, got {d}")
    tau = d / link.v_f
    delta_tau = link.std * tau
    window = link.C * delta_tau
    # At a subnormal v_f, tau overflows, and the window is inf or NaN.
    if not math.isfinite(window):
        raise ValueError(f"the detector window C * std * d / v_f overflows "
                         f"at d = {d} km with v_f = {link.v_f} km/s")
    P_DCR = -math.expm1(-link.R_DCR * window)
    P_0 = 1.0 - link.eta_e * link.eta_d
    P_loss = 1.0 - (1.0 - P_0) * 10.0 ** (-link.R * d / 10.0)
    # A fiber of length 0 does not depolarize, even where the rate per km
    # R_depolar / v_f overflows (a subnormal v_f) and inf * 0 is NaN.
    P_depolar = -math.expm1(-(link.R_depolar / link.v_f) * d) if d else 0.0

    denom = 1.0 - P_loss * (1.0 - P_DCR)
    p = 0.5 * denom
    if denom > 0.0:
        num = (P_DCR / 4.0 * (P_loss + 1.0)
               + P_depolar / 2.0 * (1.0 - P_DCR / 2.0) * (1.0 - P_loss))
        # num <= denom / 2 exactly; the rounded quotient can pass 1/2 by
        # a few ulps where P_loss rounds to 1.
        P_flip = min(0.5, num / denom)
    else:
        # No signal is ever detected; the conditional QBER is undefined,
        # report 0 rather than 0/0.
        P_flip = 0.0

    s_lim = max(2.0 * link.GD_A, link.DD + link.GD_B + link.DT + 2.0 * window)
    s = max(3.0 * link.GD_A, link.DD + link.GD_B + link.DT + 3.0 * window)
    return ChannelDerived(tau=tau, delta_tau=delta_tau, window=window,
                          P_DCR=P_DCR, P_0=P_0, P_loss=P_loss,
                          P_depolar=P_depolar, p=p, P_flip=P_flip,
                          s=s, s_lim=s_lim)


def effective_flip(p_flip: float, p_extra: float) -> float:
    """Effective bit-flip probability after Bob's controlled randomization.

    XOR composition of two independent flip channels:
    P_flip + P_extra - 2 * P_flip * P_extra.
    """
    for name, v in (("p_flip", p_flip), ("p_extra", p_extra)):
        if not 0.0 <= v <= 0.5:
            raise ValueError(f"{name} must be in [0, 1/2], got {v}")
    return p_flip + p_extra - 2.0 * p_flip * p_extra


def check_p_extra(p_extra: float) -> None:
    """Reject a requested noise level outside [0, 1/2).

    At 1/2 the controlled randomization erases the key, and infer_qber
    cannot undo it. The flip maps themselves (effective_flip,
    controlled_randomization) stay defined at 1/2.
    """
    if not 0.0 <= p_extra < 0.5:
        raise ValueError(f"p_extra must be in [0, 1/2), got {p_extra}")


def infer_qber(q_hat: float, p_extra: float) -> float:
    """Invert the controlled randomization: (Q_hat - P_extra) / (1 - 2*P_extra).

    The raw value can leave [0, 1] through finite-sample fluctuation of
    Q_hat; it is clamped. Callers that care can detect the negative case
    as q_hat < p_extra.
    """
    check_p_extra(p_extra)
    raw = (q_hat - p_extra) / (1.0 - 2.0 * p_extra)
    return min(1.0, max(0.0, raw))


def limit_distance(link: LinkParams, sec: SecurityParams) -> Optional[float]:
    """Distance at which the intrinsic QBER reaches the abort threshold.

    Returns None when P_flip stays below Q_t on (0, LIMIT_SEARCH_MAX_KM]
    (no limit distance below it). Solved by bisection; P_flip is
    increasing in d for physically sensible parameters.
    """
    def f(d: float) -> float:
        return channel_at(link, d).P_flip - sec.Q_t

    lo = 1e-9
    if f(lo) >= 0.0:
        return lo
    if f(LIMIT_SEARCH_MAX_KM) < 0.0:
        return None
    return solve_bracketed(f, lo, LIMIT_SEARCH_MAX_KM)
