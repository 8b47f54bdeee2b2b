"""Event-level execution of the variable-length BB84 protocol.

The quantum phase samples the physical events behind each detection
(photon survival, dark count, registration order, depolarization) instead
of tracking qubit states, so the sifted-bit statistics it produces are an
independent check of the closed-form p and P_flip of the link model.

Only detected pulses can reach the sifted key, and at most a few percent
of pulses are detected, so the sampler never materializes the N pulses:
it draws the detection count n_det ~ Binomial(N, p_det) and then samples
the events of those n_det detections alone, in O(n_det) time and memory.
Of those, only the fair coins are drawn per detection. Dark counts and
depolarizations are rare (0.3-2.2% of detections at 5-30 km on the
reference link), so each is drawn as a Bernoulli process through its
successes: a binomial count, then a uniform subset of the detections of
that size (Devroye, Non-Uniform Random Variate Generation, 1986, ch. X;
Floyd's sample, Bentley and Floyd, CACM 30(9), 1987). Controlled
randomization draws its flips the same way. Every probability the
sampler uses comes from the primitives P_loss, P_DCR and P_depolar,
never from the derived p or P_flip.

A run draws from one PCG64 generator, seeded once with the run seed.
Each of its four drawing stages starts at a fixed point of that stream:
stage i receives exactly the state of PCG64(seed).jumped(i), i jumps of
(phi - 1) * 2**128 steps past the seed's state (the substreams of
L'Ecuyer et al., Oper. Res. 50(6), 2002). The stages are, in order, the
quantum phase (0), controlled randomization (1), Cascade (2) and
extraction (3). The four starts lie more than 2**125 steps apart, far
more than a run draws, and a stage that draws more or less moves no
other stage's draws. Estimation draws nothing: given their count, the
sifted pairs are independent and identically distributed, so the first
ones are as good a sample as any (see estimate_parameters).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .extract import extract_key
from .link_model import (ChannelDerived, LinkParams, SecurityParams,
                         channel_at, check_p_extra, effective_flip,
                         infer_qber)
from .planner import InfeasibleError, Plan, Strategy
from .reconcile import MIN_KEY_LEN, cascade

SOURCE_NONE = 0
SOURCE_PHOTON = 1
SOURCE_DARK = 2
SOURCE_DEPOLARIZED = 3

# RunRecord.to_json_dict omits a final key longer than this many bits
# unless asked to emit keys.
KEY_OUTPUT_LIMIT_BITS = 4096

# numpy's binomial sampler takes the pulse count as a C long (int64).
_MAX_PULSES = 2 ** 63 - 1

# The step of PCG64.jumped: (phi - 1) * 2**128, rounded to an odd number.
# Drawing stage i of a run, _STAGES[i], starts i * _STAGE_JUMP steps past
# the run seed's state.
_STAGE_JUMP = 0x9e3779b97f4a7c15f39cc0605cedc835
_STAGES = ("quantum_phase", "controlled_randomization", "cascade",
           "extract_key")


def derive_seed(base_seed: int, index: int) -> int:
    """Seed of run `index` of a sweep with seed `base_seed`.

    Derived by numpy's SeedSequence with spawn key (index,), so distinct
    (base_seed, index) pairs give unrelated 64-bit seeds. The stages of a
    run do not use it: they draw from jumps of one generator (see the
    module docstring).
    """
    if base_seed < 0:
        raise ValueError(f"seed must be >= 0, got {base_seed}")
    seq = np.random.SeedSequence(base_seed, spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a bit array MSB-first into a hex string ('' for empty keys)."""
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

    def to_json_dict(self, emit_keys: bool = False) -> dict:
        """JSON form of the record.

        final_key is hex, omitted above KEY_OUTPUT_LIMIT_BITS bits unless
        emit_keys.
        """
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["strategy"] = {"kind": self.strategy.kind, "param": self.strategy.param}
        doc["final_key"] = None
        if self.final_key is not None and (
                emit_keys or self.m <= KEY_OUTPUT_LIMIT_BITS):
            doc["final_key"] = bits_to_hex(self.final_key)
        return doc


def _subset(rng: np.random.Generator, n: int, q: float) -> np.ndarray:
    """The successes of n Bernoulli(q) trials, as int64 positions in
    [0, n) in no particular order: a Binomial(n, q) count, then a uniform
    subset of that size."""
    return rng.choice(n, int(rng.binomial(n, q)), replace=False,
                      shuffle=False)


def quantum_phase(n_pulses: int, channel: ChannelDerived,
                  seed: int | np.random.Generator
                  ) -> tuple[np.ndarray, PulseOutcomes]:
    """Simulate N pulses; returns (k_A, outcomes), one entry per detected
    pulse (undetected pulses cannot be sifted and are not drawn).

    Per pulse, independently: the photon survives with 1 - P_loss and a
    dark count fires with P_DCR; when both occur the dark count is
    registered first with probability 1/2. A registered dark count yields
    a uniform bit. A registered photon is depolarized with P_depolar
    (uniform bit); otherwise Bob reads Alice's bit when bases match and a
    uniform bit when they differ.

    A pulse is detected with p_det = 1 - P_loss * (1 - P_DCR). The draws,
    in order:

    1. the detection count n_det ~ Binomial(N, p_det);
    2. one uniform byte per detection, whose bits 0 to 4 are its fair
       coins: Alice's key bit, both bases, Bob's noise bit and the
       dark-first coin;
    3. the detections holding a dark count: each does with probability
       P_DCR / p_det, drawn as a Binomial(n_det, P_DCR / p_det) count and
       a uniform subset of that size;
    4. one uniform per dark detection: its photon also survived with
       probability 1 - P_loss (a detection without a dark count holds a
       photon);
    5. the depolarization candidates: a Binomial(n_det, P_depolar) count
       and a uniform subset of that size. A depolarization applies only
       where the photon is registered.

    An N above 2**63 - 1 pulses, which the sampler cannot draw, is
    infeasible.
    """
    if n_pulses < 1:
        raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
    if n_pulses > _MAX_PULSES:
        raise InfeasibleError(
            "quantum_phase", f"N = {n_pulses} pulses exceeds the sampler's "
            "limit of 2**63 - 1")
    rng = np.random.default_rng(seed)
    p_det = 1.0 - channel.P_loss * (1.0 - channel.P_DCR)
    n_det = int(rng.binomial(n_pulses, p_det))
    # One uniform byte per detection: the bytes of raw 64-bit words, read
    # little-endian on any host, several times faster than a bounded draw.
    coins = rng.bit_generator.random_raw((n_det + 7) // 8).astype(
        "<u8", copy=False).view(np.uint8)[:n_det]
    # p_det = 0 (e.g. eta_e = 0 at d = 0) gives n_det = 0 and no division;
    # at P_loss = 1 the ratio can round past 1.
    dark = _subset(rng, n_det, min(1.0, channel.P_DCR / p_det)
                   if n_det else 0.0)
    with_photon = rng.random(len(dark)) < 1.0 - channel.P_loss
    depolarized = _subset(rng, n_det, channel.P_depolar)
    dark_registered = dark[~with_photon | ((coins[dark] & 16) != 0)]

    k_a = coins & 1
    # Alice's and Bob's bases are compared at once and never kept. On a
    # basis mismatch Bob reads his noise bit (bit 3), an arithmetic
    # selection: a masked assignment or np.where on a random mask branches
    # per element. In-place operations and an early free keep about four
    # bytes per detection alive at the stage's peak.
    mismatch = coins >> 1
    mismatch ^= coins >> 2
    mismatch &= 1
    bob_bit = coins >> 3
    bob_bit ^= coins
    bob_bit &= mismatch
    bob_bit ^= k_a
    # A registered dark count and a depolarized photon read the noise bit
    # whatever the bases.
    random_outcome = np.concatenate((depolarized, dark_registered))
    bob_bit[random_outcome] = (coins[random_outcome] >> 3) & 1
    del coins
    basis_match = mismatch == 0
    del mismatch

    source = np.full(n_det, SOURCE_PHOTON, dtype=np.uint8)
    source[depolarized] = SOURCE_DEPOLARIZED
    # Written last: a registered dark count is never a depolarized photon.
    source[dark_registered] = SOURCE_DARK

    outcomes = PulseOutcomes(detection_source=source, basis_match=basis_match,
                             bob_bit=bob_bit)
    return k_a, outcomes


def sift(k_a: np.ndarray, outcomes: PulseOutcomes
         ) -> tuple[np.ndarray, np.ndarray]:
    """Keep the detected events measured in matching bases."""
    if not len(k_a) == len(outcomes.basis_match) == len(outcomes.bob_bit):
        raise ValueError("sift inputs must have equal length")
    # Index arrays: boolean-mask indexing on a random mask branches per
    # element and costs several times more.
    keep = np.flatnonzero(outcomes.basis_match)
    return k_a[keep], outcomes.bob_bit[keep]


def controlled_randomization(key: np.ndarray, p_extra: float,
                             seed: int | np.random.Generator) -> np.ndarray:
    """Flip each bit independently with probability p_extra: a copy of
    the key with a uniform subset of Binomial(len(key), p_extra) positions
    flipped."""
    if not 0.0 <= p_extra <= 0.5:
        raise ValueError(f"p_extra must be in [0, 1/2], got {p_extra}")
    key = np.array(key, dtype=np.uint8)
    if p_extra > 0.0:
        key[_subset(np.random.default_rng(seed), len(key), p_extra)] ^= 1
    return key


def estimate_parameters(sifted_a: np.ndarray, sifted_b: np.ndarray,
                        strategy: Strategy, p_extra: float,
                        sec: SecurityParams):
    """Estimate the error rate from the first sifted pairs, decide abort.

    The sample is the first strategy.sample_size(n) of the n sifted pairs.
    That is exact: given n, the pairs are independent and identically
    distributed (each detection's events are drawn alike and independently,
    and sifting and the randomization's flips act on each pair alike and
    independently), so the first s pairs, with the rest in order, have
    the law of a uniform s-subset with its complement.

    Returns (q_hat, q_inferred, clamped, abort_cause, remaining_a,
    remaining_b), the remaining keys as views of the inputs past the
    sample. abort_cause is "no-signal" when fewer than two bits were
    sifted (too few to sample and still reconcile), "qber-threshold" when
    the inferred QBER (randomization undone) reaches Q_t, and None when
    the run goes on.
    """
    n = len(sifted_a)
    if len(sifted_b) != n:
        raise ValueError("sifted keys must have equal length")
    if n < 2:
        return 0.0, 0.0, False, "no-signal", sifted_a, sifted_b
    size = strategy.sample_size(n)
    # A Python float, so the record's fields stay JSON-serializable.
    q_hat = float(np.count_nonzero(sifted_a[:size] != sifted_b[:size]) / size)
    q_inf = infer_qber(q_hat, p_extra)
    clamped = q_hat < p_extra
    abort_cause = "qber-threshold" if q_inf >= sec.Q_t else None
    return q_hat, q_inf, clamped, abort_cause, sifted_a[size:], sifted_b[size:]


def run_protocol(link: LinkParams, sec: SecurityParams, d: float,
                 n_pulses: int, strategy: Strategy, p_extra: float,
                 seed: int) -> RunRecord:
    """One full protocol execution, deterministic in (inputs, seed).

    The run seeds one generator, default_rng(seed), and hands it to each
    drawing stage in turn, first set to the stage's start: stage i
    receives the state of PCG64(seed).jumped(i), for 0 quantum phase,
    1 controlled randomization, 2 Cascade and 3 extraction. Estimation
    draws nothing. The stages share the one Generator object, so a stage
    must not keep it after it returns.

    A run that does not fit in memory is infeasible at the stage that is
    running when the MemoryError is raised; sifting counts as part of the
    quantum phase.

    The quantum-channel time uses the fixed clock model
    N*s + tau + window + DD (classical-message latencies are not
    modeled). p_extra outside [0, 1/2) is rejected on entry, however few
    bits the run would sift: p_extra = 1/2 erases the key and cannot be
    inverted.
    """
    check_p_extra(p_extra)
    channel = channel_at(link, d)
    # numpy's own message for a negative seed names no parameter.
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    start = rng.bit_generator.state
    current = [_STAGES[0]]

    def stage(i: int) -> np.random.Generator:
        """The run's generator, set i jumps past the seed's state; drawing
        stage i becomes the current one."""
        current[0] = _STAGES[i]
        rng.bit_generator.state = start
        rng.bit_generator.advance(i * _STAGE_JUMP % 2 ** 128)
        return rng

    t_quantum = n_pulses * channel.s + channel.tau + channel.window + link.DD
    try:
        # No name holds the per-detection arrays, so they are freed once
        # sift returns instead of adding to the peak of Cascade and
        # extraction.
        sifted_a, sifted_b = sift(*quantum_phase(n_pulses, channel,
                                                 stage(0)))
        sifted_b = controlled_randomization(sifted_b, p_extra, stage(1))
        n_sifted = len(sifted_a)

        current[0] = "estimate_parameters"
        q_hat, q_inf, clamped, abort_cause, rem_a, rem_b = (
            estimate_parameters(sifted_a, sifted_b, strategy, p_extra, sec))
        # Only the views rem_a and rem_b keep the sifted keys alive now, so
        # Bob's is freed with rem_b after Cascade.
        del sifted_a, sifted_b
        sample_size = n_sifted - len(rem_a)
        l = len(rem_a)
        if abort_cause is None and l < MIN_KEY_LEN:
            abort_cause = "key-too-short"
        aborted = abort_cause is not None

        p_hat = effective_flip(channel.P_flip, p_extra)
        n_exp = 0
        f_realized = 0.0
        verified = False
        k_bound = 0.0
        m = 0
        final_key: Optional[np.ndarray] = None
        if not aborted:
            rec = cascade(rem_a, rem_b, q_hat, stage(2))
            del rem_b
            n_exp = rec.n_exp
            f_realized = rec.f_realized
            verified = rec.verified
            # The extractor input length is bounded a priori from the link
            # model, not from the realized leakage.
            final_key, k_bound = extract_key(rem_a, p_hat, sec, stage(3))
            m = len(final_key)
    except MemoryError:
        message = f"the run of N = {n_pulses} pulses does not fit in memory"
        raise InfeasibleError(current[0], message) from None

    return RunRecord(N=n_pulses, n_sifted=n_sifted, sample_size=sample_size,
                     Q_hat=q_hat, Q_inferred=q_inf, q_inferred_clamped=clamped,
                     aborted=aborted, abort_cause=abort_cause, l=l,
                     n_exp=n_exp, f_realized=f_realized, verified=verified,
                     k=k_bound, m=m, final_key=final_key, P_extra=p_extra,
                     d=d, strategy=strategy, seed=seed,
                     t_quantum=t_quantum)


def run_from_plan(plan: Plan, link: LinkParams, sec: SecurityParams,
                  seed: int) -> RunRecord:
    """Execute the protocol with a plan's sizing outputs."""
    return run_protocol(link, sec, plan.d, plan.N_F, plan.strategy,
                        plan.P_extra_opt, seed)
