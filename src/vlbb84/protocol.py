"""Event-level execution of the variable-length BB84 protocol.

The quantum phase samples the physical events behind each detection
(photon survival, dark count, registration order, depolarization) instead
of tracking qubit states, so the sifted-bit statistics it produces are an
independent check of the closed-form p and P_flip of the link model.

Only detected pulses can reach the sifted key, and at most a few percent
of pulses are detected, so the sampler never materializes the N pulses:
it draws the detection count n_det ~ Binomial(N, p_det) and then samples
the events of those n_det detections alone, in O(n_det) time and memory.
Every probability it uses comes from the primitives P_loss, P_DCR and
P_depolar, never from the derived p or P_flip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .extract import extract_key
from .link_model import (ChannelDerived, LinkParams, SecurityParams,
                         channel_at, effective_flip, infer_qber)
from .planner import Plan, Strategy
from .reconcile import MIN_KEY_LEN, cascade

SOURCE_NONE = 0
SOURCE_PHOTON = 1
SOURCE_DARK = 2
SOURCE_DEPOLARIZED = 3


def derive_seed(base_seed: int, index: int) -> int:
    """Seed of sub-stream `index` of `base_seed` (a run of a sweep, or a
    stage of a run).

    Derived by numpy's SeedSequence with spawn key (index,), so distinct
    (base_seed, index) pairs give unrelated 64-bit seeds.
    """
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
    seq = np.random.SeedSequence(base_seed, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a bit array MSB-first into a hex string ('' for empty keys)."""
    if len(bits) == 0:
        return ""
    return bytes(np.packbits(np.asarray(bits, dtype=np.uint8))).hex()


@dataclass(frozen=True)
class PulseOutcomes:
    """Bob's side of the detected events of one quantum phase, as arrays
    with one entry per detection (undetected pulses are never sampled)."""

    detection_source: np.ndarray  # uint8, SOURCE_* codes, never SOURCE_NONE
    basis_match: np.ndarray       # bool
    bob_bit: np.ndarray           # uint8

    @property
    def detected(self) -> np.ndarray:
        """Boolean mask of registered events (all of them, by construction)."""
        return self.detection_source != SOURCE_NONE


@dataclass
class RunRecord:
    """Full transcript of one protocol execution."""

    N: int
    n_sifted: int
    sample_size: int
    Q_hat: float
    Q_inferred: float
    q_inferred_clamped: bool
    aborted: bool
    abort_cause: Optional[str]
    l: int
    n_exp: int
    f_realized: float
    verified: bool
    k: float
    m: int
    final_key: Optional[np.ndarray]
    P_extra: float
    d: float
    strategy: Strategy
    seed: int
    t_quantum: float      # simulated seconds on the quantum channel
    t_post: float         # wall-clock seconds of post-processing

    def to_json_dict(self, emit_keys: bool = False, key_limit: int = 4096,
                     include_wall_time: bool = False) -> dict:
        """JSON form of the record.

        final_key is hex, omitted above key_limit bits unless emit_keys.
        Wall-clock time is excluded by default so the output is a pure
        function of (inputs, seed).
        """
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["strategy"] = {"kind": self.strategy.kind, "param": self.strategy.param}
        doc["final_key"] = None
        if self.final_key is not None and (emit_keys or self.m <= key_limit):
            doc["final_key"] = bits_to_hex(self.final_key)
        if not include_wall_time:
            del doc["t_post"]
        return doc


def quantum_phase(n_pulses: int, channel: ChannelDerived, seed: int
                  ) -> tuple[np.ndarray, PulseOutcomes, np.ndarray, np.ndarray]:
    """Simulate N pulses; returns (k_A, outcomes, b_A, b_B), one entry per
    detected pulse (undetected pulses cannot be sifted and are not drawn).

    Per pulse, independently: the photon survives with 1 - P_loss and a
    dark count fires with P_DCR; when both occur the dark count is
    registered first with probability 1/2. A registered dark count yields
    a uniform bit. A registered photon is depolarized with P_depolar
    (uniform bit); otherwise Bob reads Alice's bit when bases match and a
    uniform bit when they differ.

    A pulse is detected with p_det = 1 - P_loss * (1 - P_DCR). The number
    of detections is drawn first; each detection is then photon only,
    photon and dark, or dark only in proportion to (1 - P_loss)(1 - P_DCR),
    (1 - P_loss) P_DCR and P_loss P_DCR. The five fair coins of a
    detection (Alice's key bit, both bases, Bob's noise bit and the
    dark-first coin) are the low five bits of one uniform random byte.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    rng = np.random.default_rng(seed)
    p_det = 1.0 - channel.P_loss * (1.0 - channel.P_DCR)
    n_det = int(rng.binomial(n_pulses, p_det))
    # Given a detection, a uniform u below photon_only_cut is a lone
    # photon, u >= photon_cut a lone dark count, and the band between both.
    # p_det = 0 (e.g. eta_e = 0 at d = 0) gives n_det = 0 and no division.
    photon_cut = (1.0 - channel.P_loss) / p_det if n_det else 0.0
    photon_only_cut = photon_cut * (1.0 - channel.P_DCR)
    category = rng.random(n_det)
    depolarized = rng.random(n_det) < channel.P_depolar
    coins = np.frombuffer(rng.bytes(n_det), dtype=np.uint8)
    k_a = coins & 1
    b_a = (coins >> 1) & 1
    b_b = (coins >> 2) & 1
    noise_bit = (coins >> 3) & 1
    dark_first = (coins & 16) != 0

    photon = category < photon_cut
    dark = category >= photon_only_cut
    dark_registered = dark & (~photon | dark_first)
    depolarized &= ~dark_registered
    basis_match = b_a == b_b

    # Selections are arithmetic, not masked assignment or np.where: on
    # random masks those branch per element and cost several times more.
    source = (SOURCE_PHOTON
              + dark_registered * np.uint8(SOURCE_DARK - SOURCE_PHOTON)
              + depolarized * np.uint8(SOURCE_DEPOLARIZED - SOURCE_PHOTON))
    random_outcome = dark_registered | depolarized | ~basis_match
    bob_bit = k_a ^ ((noise_bit ^ k_a) & random_outcome)

    outcomes = PulseOutcomes(detection_source=source, basis_match=basis_match,
                             bob_bit=bob_bit)
    return k_a, outcomes, b_a, b_b


def sift(k_a: np.ndarray, b_a: np.ndarray, b_b: np.ndarray,
         outcomes: PulseOutcomes) -> tuple[np.ndarray, np.ndarray]:
    """Keep the detected events measured in matching bases."""
    n = len(k_a)
    if not (len(b_a) == len(b_b) == len(outcomes.bob_bit) == n):
        raise ValueError("sift inputs must have equal length")
    # Index arrays: boolean-mask indexing on a random mask branches per
    # element and costs several times more.
    keep = np.flatnonzero(b_a == b_b)
    return (np.asarray(k_a, dtype=np.uint8)[keep],
            np.asarray(outcomes.bob_bit, dtype=np.uint8)[keep])


def controlled_randomization(key: np.ndarray, p_extra: float,
                             seed: int) -> np.ndarray:
    """Flip each bit independently with probability p_extra."""
    if not 0.0 <= p_extra <= 0.5:
        raise ValueError(f"p_extra must be in [0, 1/2], got {p_extra}")
    key = np.asarray(key, dtype=np.uint8)
    if p_extra == 0.0:
        return key.copy()
    rng = np.random.default_rng(seed)
    flips = rng.random(len(key)) < p_extra
    return key ^ flips.astype(np.uint8)


def estimate_parameters(sifted_a: np.ndarray, sifted_b: np.ndarray,
                        strategy: Strategy, p_extra: float,
                        sec: SecurityParams, seed: int):
    """Sample a random subset, estimate the error rate, decide abort.

    Returns (q_hat, q_inferred, clamped, aborted, remaining_a, remaining_b).
    The abort compares the inferred QBER (randomization undone) against
    Q_t. Keys too short to sample and still reconcile abort with a
    distinct no-signal cause.
    """
    n = len(sifted_a)
    if len(sifted_b) != n:
        raise ValueError("sifted keys must have equal length")
    if n < 2:
        return 0.0, 0.0, False, True, sifted_a, sifted_b
    rng = np.random.default_rng(seed)
    size = strategy.sample_size(n)
    idx = rng.choice(n, size=size, replace=False)
    q_hat = float(np.mean(sifted_a[idx] != sifted_b[idx]))
    q_inf = infer_qber(q_hat, p_extra)
    clamped = q_hat < p_extra
    aborted = q_inf >= sec.Q_t
    mask = np.ones(n, dtype=bool)
    mask[idx] = False
    return q_hat, q_inf, clamped, aborted, sifted_a[mask], sifted_b[mask]


def run_protocol(link: LinkParams, sec: SecurityParams, d: float,
                 n_pulses: int, strategy: Strategy, p_extra: float,
                 seed: int) -> RunRecord:
    """One full protocol execution, deterministic in (inputs, seed).

    The quantum-channel time uses the fixed clock model
    N*s + tau + window + DD (classical-message latencies are not
    modeled); post-processing time is measured wall clock.
    """
    channel = channel_at(link, d)
    sub = [derive_seed(seed, i) for i in range(5)]

    k_a, outcomes, b_a, b_b = quantum_phase(n_pulses, channel, sub[0])
    sifted_a, sifted_b = sift(k_a, b_a, b_b, outcomes)
    sifted_b = controlled_randomization(sifted_b, p_extra, sub[1])
    n_sifted = len(sifted_a)
    t_quantum = n_pulses * channel.s + channel.tau + channel.window + link.DD

    q_hat, q_inf, clamped, aborted, rem_a, rem_b = estimate_parameters(
        sifted_a, sifted_b, strategy, p_extra, sec, sub[2])
    sample_size = n_sifted - len(rem_a)
    abort_cause = None
    if aborted:
        abort_cause = "no-signal" if n_sifted < 2 else "qber-threshold"

    l = len(rem_a)
    p_hat = effective_flip(channel.P_flip, p_extra)
    n_exp = 0
    f_realized = 0.0
    verified = False
    k_bound = 0.0
    m = 0
    final_key: Optional[np.ndarray] = None
    t0 = time.perf_counter()
    if not aborted and l < MIN_KEY_LEN:
        aborted = True
        abort_cause = "key-too-short"
    if not aborted:
        rec = cascade(rem_a, rem_b, q_hat, sub[3])
        n_exp = rec.n_exp
        f_realized = rec.f_realized
        verified = rec.verified
        # The extractor input length is bounded a priori from the link
        # model, not from the realized leakage.
        ext = extract_key(rem_a, p_hat, sec, np.random.default_rng(sub[4]))
        k_bound = ext.k_bound
        m = len(ext.final_key)
        final_key = ext.final_key
    t_post = time.perf_counter() - t0

    return RunRecord(N=n_pulses, n_sifted=n_sifted, sample_size=sample_size,
                     Q_hat=q_hat, Q_inferred=q_inf, q_inferred_clamped=clamped,
                     aborted=aborted, abort_cause=abort_cause, l=l,
                     n_exp=n_exp, f_realized=f_realized, verified=verified,
                     k=k_bound, m=m, final_key=final_key, P_extra=p_extra,
                     d=d, strategy=strategy, seed=seed,
                     t_quantum=t_quantum, t_post=t_post)


def run_from_plan(plan: Plan, link: LinkParams, sec: SecurityParams,
                  seed: int) -> RunRecord:
    """Execute the protocol with a plan's sizing outputs."""
    return run_protocol(link, sec, plan.d, plan.N_F, plan.strategy,
                        plan.P_extra_opt, seed)
