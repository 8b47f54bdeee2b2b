import json
import math
import tracemalloc

import numpy as np
import pytest

from test_acceptance import BASE_SEED
from test_forecast_gate import RUNS as GATE_RUNS
from test_forecast_gate import SEED_BASES as GATE_SEED_BASES
from test_planned_reconciliation import RUNS, SEED_BASE
from vlbb84 import protocol
from vlbb84.link_model import (ChannelDerived, LinkParams, SecurityParams,
                               channel_at, effective_flip)
from vlbb84.numerics import output_length_fixed_point
from vlbb84.planner import (COUNT, FRACTION, SQRT, InfeasibleError, Strategy,
                            plan)
from vlbb84.protocol import (SOURCE_DARK, SOURCE_DEPOLARIZED, SOURCE_NONE,
                             SOURCE_PHOTON, PulseOutcomes, bits_to_hex,
                             controlled_randomization, derive_seed,
                             estimate_parameters, quantum_phase, run_protocol,
                             sift)

LINK = LinkParams()
SEC = SecurityParams()

LOST = -1


def reference_quantum_phase(n_pulses: int, channel: ChannelDerived, seed: int):
    """Per-pulse sampler, the oracle for the detected-only quantum_phase.

    Draws every pulse's events, detected or not; returns per-pulse arrays
    (k_a, basis_match, detected, source, bob_bit) with bob_bit LOST where
    nothing was registered.
    """
    rng = np.random.default_rng(seed)
    k_a = rng.integers(0, 2, n_pulses, dtype=np.uint8)
    b_a = rng.integers(0, 2, n_pulses, dtype=np.uint8)
    b_b = rng.integers(0, 2, n_pulses, dtype=np.uint8)
    photon = rng.random(n_pulses) < (1.0 - channel.P_loss)
    dark = rng.random(n_pulses) < channel.P_DCR
    dark_first = rng.random(n_pulses) < 0.5
    depolarized = rng.random(n_pulses) < channel.P_depolar
    noise_bit = rng.integers(0, 2, n_pulses, dtype=np.uint8)

    detected = photon | dark
    dark_registered = dark & (~photon | dark_first)
    photon_registered = photon & ~dark_registered
    basis_match = b_a == b_b

    source = np.full(n_pulses, SOURCE_NONE, dtype=np.uint8)
    source[dark_registered] = SOURCE_DARK
    source[photon_registered] = SOURCE_PHOTON
    source[photon_registered & depolarized] = SOURCE_DEPOLARIZED

    random_outcome = (dark_registered
                      | (photon_registered & depolarized)
                      | (photon_registered & ~depolarized & ~basis_match))
    bob_bit = np.where(random_outcome, noise_bit, k_a).astype(np.int8)
    bob_bit[~detected] = LOST
    return k_a, basis_match, detected, source, bob_bit


def sifted_statistics(k_a, basis_match, detected, source, bob_bit) -> dict:
    """Sift count, sifted QBER and provenance fractions of sifted bits."""
    keep = detected & basis_match
    n_sift = int(keep.sum())
    kept_source = source[keep]
    return {
        "n_sift": n_sift,
        "qber": float((k_a[keep] != bob_bit[keep]).mean()),
        "photon": float((kept_source == SOURCE_PHOTON).mean()),
        "dark": float((kept_source == SOURCE_DARK).mean()),
        "depolarized": float((kept_source == SOURCE_DEPOLARIZED).mean()),
    }


# run_protocol's drawing stages in stream order. Each takes its generator
# as its last positional argument.
STAGES = ("quantum_phase", "controlled_randomization", "cascade",
          "extract_key")


def record_stages(monkeypatch, record):
    """Wrap every drawing stage in run_protocol's namespace so that it
    first calls record(stage, generator)."""
    def recording(name, func):
        def wrapped(*args):
            record(name, args[-1])
            return func(*args)
        return wrapped

    for name in STAGES:
        monkeypatch.setattr(protocol, name,
                            recording(name, getattr(protocol, name)))


def stage_starts(monkeypatch, run_seeds) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) each drawing stage receives, from one real
    run per seed. A run calls a prefix of STAGES, the first two at least:
    one that aborts at estimation draws no Cascade or extraction stream."""
    calls = []
    starts = []
    with monkeypatch.context() as m:
        record_stages(m, lambda name, rng: calls.append(
            (name, rng.bit_generator.state["state"])))
        for seed in run_seeds:
            run_protocol(LINK, SEC, 5.0, 10_000, Strategy(FRACTION, 0.1),
                         0.01, seed)
            called = [name for name, _ in calls]
            assert len(called) >= 2 and called == list(STAGES[:len(called)])
            starts += [(s["state"], s["inc"]) for _, s in calls]
            calls.clear()
    return starts


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_spreads_indices(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_64_bit_range(self):
        for i in range(100):
            assert 0 <= derive_seed(2 ** 63, i) < 2 ** 64

    def test_acceptance_criteria_streams_are_disjoint(self, monkeypatch):
        # Criterion 4: 14 distances x 50 runs; criterion 5: 2 targets x 3
        # strategies x 6 distances x 20 runs; the reconciliation evidence
        # on criterion 5's grid, on a seed base of its own; the forecast
        # gate, on one seed base per point.
        c04 = [derive_seed(BASE_SEED + 1, i) for i in range(14 * 50)]
        c05 = [derive_seed(BASE_SEED + 2, i) for i in range(2 * 3 * 6 * 20)]
        evidence = [derive_seed(SEED_BASE, i) for i in range(RUNS)]
        gate = [derive_seed(base, i) for base in GATE_SEED_BASES.values()
                for i in range(GATE_RUNS)]
        starts = stage_starts(monkeypatch, c04 + c05 + evidence + gate)
        assert len(set(starts)) == len(starts)

    def test_cli_seeds_share_no_stream(self, monkeypatch):
        # `run --seed s` runs with seed s; `sweep --seed s` runs i with
        # derive_seed(s, i).
        runs = [0, 1] + [derive_seed(s, i) for s in (0, 1) for i in range(100)]
        starts = stage_starts(monkeypatch, runs)
        assert len(set(starts)) == len(starts)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)


class TestStageStreams:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 63 - 1,
                                      0xC3A5C85C97CB3127])
    def test_stage_receives_jumped_state(self, monkeypatch, seed):
        # Stage i starts at PCG64(seed).jumped(i); stage 0 at PCG64(seed).
        received = []
        record_stages(monkeypatch, lambda name, rng: received.append(
            rng.bit_generator.state))
        run_protocol(LINK, SEC, 5.0, 10_000, Strategy(FRACTION, 0.1), 0.01,
                     seed)
        assert len(received) == len(STAGES)
        assert received[0] == np.random.PCG64(seed).state
        for i, state in enumerate(received):
            assert state == np.random.PCG64(seed).jumped(i).state, i

    @pytest.mark.parametrize("stage", STAGES[:-1])
    def test_extra_draws_move_no_other_stage(self, monkeypatch, stage):
        # A stage that draws more than it does today leaves every later
        # stage's draws, and so the whole record, unchanged.
        def run() -> dict:
            return run_protocol(LINK, SEC, 5.0, 20_000,
                                Strategy(FRACTION, 0.1), 0.01,
                                seed=11).to_json_dict(emit_keys=True)

        want = run()
        assert want["m"] > 0
        func = getattr(protocol, stage)

        def greedy(*args):
            out = func(*args)
            args[-1].random(1000)
            return out

        monkeypatch.setattr(protocol, stage, greedy)
        assert run() == want

    def test_stage_functions_take_int_seeds(self):
        # An int seed gives the stage a fresh generator of that seed.
        ch = channel_at(LINK, 5.0)
        k_a, outcomes = quantum_phase(10_000, ch, 3)
        rng = np.random.default_rng(3)
        k_b, again = quantum_phase(10_000, ch, rng)
        assert np.array_equal(k_a, k_b)
        assert np.array_equal(outcomes.bob_bit, again.bob_bit)

    def test_negative_run_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            run_protocol(LINK, SEC, 5.0, 10_000, Strategy(FRACTION, 0.1),
                         0.01, seed=-1)


class TestSubset:
    """protocol._subset, the draw of every rare event: a Binomial(n, q)
    count, then a uniform subset of [0, n) of that size. numpy draws a
    subset of more than n/20 positions, or of n <= 10,000, by a partial
    shuffle and a smaller one by Floyd's algorithm; both are covered."""

    SEEDS = 4000

    @staticmethod
    def draws(n, q, seeds):
        return [protocol._subset(np.random.default_rng(derive_seed(20, i)),
                                 n, q) for i in range(seeds)]

    @pytest.mark.parametrize("n, q", [(64, 0.05), (64, 0.5), (64, 0.85)])
    def test_inclusion_frequency_per_position(self, n, q):
        counts = np.zeros(n, dtype=np.int64)
        for positions in self.draws(n, q, self.SEEDS):
            counts[positions] += 1
        se = math.sqrt(q * (1.0 - q) / self.SEEDS)
        assert np.abs(counts / self.SEEDS - q).max() <= 4 * se

    def test_inclusion_frequency_floyd(self):
        # 20,000 positions at q = 0.01 take Floyd's algorithm; the
        # frequency is checked per block of 500 positions, the last block
        # (the positions Floyd's algorithm inserts itself) included.
        n, q, seeds, block = 20_000, 0.01, 400, 500
        counts = np.zeros(n, dtype=np.int64)
        for positions in self.draws(n, q, seeds):
            assert len(positions) <= n // 20
            counts[positions] += 1
        per_block = counts.reshape(-1, block).sum(axis=1) / (seeds * block)
        se = math.sqrt(q * (1.0 - q) / (seeds * block))
        assert np.abs(per_block - q).max() <= 4 * se

    @pytest.mark.parametrize("n, q", [(64, 0.05), (20_000, 0.01), (64, 0.5),
                                      (500, 0.85)])
    def test_size_is_binomial(self, n, q):
        sizes = np.array([len(p) for p in self.draws(n, q, self.SEEDS)])
        assert all(len(np.unique(p)) == len(p)
                   for p in self.draws(n, q, 50))
        var = n * q * (1.0 - q)
        assert abs(sizes.mean() - n * q) <= 4 * math.sqrt(var / self.SEEDS)
        # The sample variance's standard error is ~var * sqrt(2 / seeds).
        assert abs(sizes.var(ddof=1) - var) <= 4 * var * math.sqrt(
            2 / self.SEEDS)

    @pytest.mark.parametrize("n, q, size", [(0, 0.0, 0), (0, 0.3, 0),
                                            (1000, 0.0, 0), (1000, 1.0, 1000)])
    def test_edges(self, n, q, size):
        positions = protocol._subset(np.random.default_rng(1), n, q)
        assert positions.dtype == np.int64
        assert np.array_equal(np.sort(positions), np.arange(size))


class TestQuantumPhase:
    def test_zero_distance_no_errors(self):
        ch = channel_at(LINK, 0.0)
        k_a, outcomes = quantum_phase(100_000, ch, seed=11)
        keep = outcomes.detected & outcomes.basis_match
        assert int((k_a[keep] != outcomes.bob_bit[keep]).sum()) == 0
        # No dark counts or depolarization can occur at d = 0.
        assert not (outcomes.detection_source == SOURCE_DARK).any()
        assert not (outcomes.detection_source == SOURCE_DEPOLARIZED).any()

    def test_zero_distance_sift_count(self):
        n = 100_000
        ch = channel_at(LINK, 0.0)
        k_a, outcomes = quantum_phase(n, ch, seed=12)
        count = int((outcomes.detected & outcomes.basis_match).sum())
        assert abs(count - n * 0.06) <= 3 * math.sqrt(n * 0.06 * 0.94)

    def test_event_level_matches_closed_form_qber(self):
        n = 2_000_000
        ch = channel_at(LINK, 50.0)
        k_a, outcomes = quantum_phase(n, ch, seed=13)
        keep = outcomes.detected & outcomes.basis_match
        n_sift = int(keep.sum())
        mismatch = float((k_a[keep] != outcomes.bob_bit[keep]).mean())
        se = math.sqrt(ch.P_flip * (1 - ch.P_flip) / n_sift)
        assert abs(mismatch - ch.P_flip) <= 4 * se

    def test_outcome_invariants(self):
        ch = channel_at(LINK, 25.0)
        k_a, outcomes = quantum_phase(50_000, ch, seed=14)
        assert len(k_a) > 0
        for bits in (k_a, outcomes.bob_bit):
            assert bits.dtype == np.uint8 and len(bits) == len(k_a)
            assert np.isin(bits, (0, 1)).all()
        assert outcomes.basis_match.dtype == bool
        assert len(outcomes.basis_match) == len(k_a)
        assert not (outcomes.detection_source == SOURCE_NONE).any()
        assert outcomes.detected.all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            quantum_phase(0, channel_at(LINK, 0.0), seed=1)

    def test_no_detection_link(self):
        # eta_e = 0 at 0 km: p_det = 0, so no detection, no division.
        k_a, outcomes = quantum_phase(100_000, channel_at(
            LinkParams(eta_e=0.0), 0.0), seed=1)
        assert len(k_a) == len(outcomes.bob_bit) == 0
        assert len(outcomes.basis_match) == len(outcomes.detection_source) == 0

    def test_dark_only_link(self):
        # eta_e = 0 at 1 km: every detection is a lone dark count, and
        # P_DCR / p_det rounds to 1 + 3e-13, which must not reach the
        # binomial draw. Bob's bits are uniform.
        ch = channel_at(LinkParams(eta_e=0.0), 1.0)
        p_det = 1.0 - ch.P_loss * (1.0 - ch.P_DCR)
        assert ch.P_loss == 1.0 and ch.P_DCR / p_det > 1.0
        k_a, outcomes = quantum_phase(10 ** 10, ch, seed=2)
        assert len(k_a) > 10_000
        assert (outcomes.detection_source == SOURCE_DARK).all()
        keep = outcomes.basis_match
        qber = float((k_a[keep] != outcomes.bob_bit[keep]).mean())
        assert abs(qber - 0.5) <= 4 * math.sqrt(0.25 / int(keep.sum()))

    @pytest.mark.parametrize("n", [2 ** 63, 10 ** 19, 10 ** 146],
                             ids=["2**63", "1e19", "1e146"])
    def test_count_beyond_int64_is_infeasible(self, n):
        # The binomial sampler takes N as an int64: a larger N is a run the
        # simulator cannot perform, reported with its N.
        with pytest.raises(InfeasibleError, match=f"N = {n} pulses") as exc:
            quantum_phase(n, channel_at(LINK, 30.0), seed=1)
        assert exc.value.stage == "quantum_phase"

    @pytest.mark.parametrize("d, kind", [(1e-140, COUNT), (1e-20, SQRT)])
    def test_planned_count_beyond_int64_is_infeasible(self, d, kind):
        # Such a plan is valid; running it is not.
        the_plan = plan(d, 1000, kind, LINK, SEC, p_extra=0.0)
        assert the_plan.N_F > 2 ** 63 - 1
        with pytest.raises(InfeasibleError,
                           match=f"N = {the_plan.N_F} pulses") as exc:
            protocol.run_from_plan(the_plan, LINK, SEC, seed=1)
        assert exc.value.stage == "quantum_phase"

    def test_detections_beyond_memory_are_infeasible(self):
        # N fits int64, but numpy refuses at once to allocate its ~2.8e17
        # detections. The sampler lets the MemoryError through, and the run
        # answers infeasible at the quantum phase, naming N.
        n = 2 ** 63 - 1
        with pytest.raises(MemoryError):
            quantum_phase(n, channel_at(LINK, 30.0), seed=1)
        with pytest.raises(InfeasibleError,
                           match=f"^quantum_phase: the run of N = {n} pulses "
                                 "does not fit in memory$") as exc:
            run_protocol(LINK, SEC, 30.0, n, Strategy(FRACTION, 0.1), 0.0,
                         seed=1)
        assert exc.value.stage == "quantum_phase"

    def test_memory_scales_with_detections(self):
        # 1e8 pulses at 65 km is ~650k detections; per-pulse arrays
        # would need gigabytes. A first, untraced call imports
        # numpy.random, which numpy loads lazily.
        quantum_phase(1, channel_at(LINK, 65.0), seed=0)
        tracemalloc.start()
        try:
            k_a, _ = quantum_phase(10 ** 8, channel_at(LINK, 65.0),
                                   seed=derive_seed(16, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(k_a) < 10 ** 6
        assert peak < 64 * 2 ** 20

    def test_peak_per_sifted_bit(self):
        # ~300k sifted bits at 30 km; the stage holds a few bytes per
        # detection, two detections per sifted bit. A first, untraced call
        # imports numpy.random, which numpy loads lazily.
        n = 2 * 10 ** 7
        quantum_phase(1, channel_at(LINK, 30.0), seed=0)
        tracemalloc.start()
        try:
            _, outcomes = quantum_phase(n, channel_at(LINK, 30.0),
                                        seed=derive_seed(18, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sifted = int(np.count_nonzero(outcomes.basis_match))
        assert sifted > 10 ** 5
        assert peak <= 9 * sifted

    @pytest.mark.parametrize("d", [5.0, 30.0, 65.0])
    def test_matches_per_pulse_reference(self, d):
        n = 2_000_000
        ch = channel_at(LINK, d)
        k_a, outcomes = quantum_phase(n, ch, derive_seed(17, 2 * int(d)))
        fast = sifted_statistics(k_a, outcomes.basis_match, outcomes.detected,
                                 outcomes.detection_source, outcomes.bob_bit)
        ref = sifted_statistics(*reference_quantum_phase(
            n, ch, derive_seed(17, 2 * int(d) + 1)))

        p_det = 1.0 - ch.P_loss * (1.0 - ch.P_DCR)
        dark = ch.P_DCR * (ch.P_loss + (1.0 - ch.P_loss) / 2.0) / p_det
        depolarized = (1.0 - dark) * ch.P_depolar
        theory = {"qber": ch.P_flip, "photon": 1.0 - dark - depolarized,
                  "dark": dark, "depolarized": depolarized}
        se_sift = math.sqrt(n * ch.p * (1 - ch.p))
        assert abs(fast["n_sift"] - n * ch.p) <= 4 * se_sift
        assert abs(ref["n_sift"] - n * ch.p) <= 4 * se_sift
        assert abs(fast["n_sift"] - ref["n_sift"]) <= 4 * math.sqrt(2) * se_sift
        for name, theta in theory.items():
            se_fast = math.sqrt(theta * (1 - theta) / fast["n_sift"])
            se_ref = math.sqrt(theta * (1 - theta) / ref["n_sift"])
            assert abs(fast[name] - theta) <= 4 * se_fast, name
            assert abs(ref[name] - theta) <= 4 * se_ref, name
            assert abs(fast[name] - ref[name]) <= 4 * math.hypot(se_fast, se_ref), name


class TestBusyLink:
    # Lossless devices and high dark-count and depolarizing rates: at 30 km
    # a photon and a dark count share a window in ~15% of pulses, where the
    # reference link has ~2e-4.
    LINK = LinkParams(eta_e=1.0, eta_d=1.0, R_DCR=1e5, R_depolar=1e4)

    def test_source_codes_are_defined(self):
        # A registered dark count yields a uniform bit and is never also
        # depolarized: every detection has exactly one source.
        ch = channel_at(self.LINK, 30.0)
        _, outcomes = quantum_phase(200_000, ch, derive_seed(19, 0))
        assert set(np.unique(outcomes.detection_source).tolist()) == {
            SOURCE_PHOTON, SOURCE_DARK, SOURCE_DEPOLARIZED}

    def test_dark_count_registers_first_half_the_time(self):
        # When a photon and a dark count share a window, the dark count is
        # registered first with probability 1/2. Never registering it first
        # moves the dark fraction of detections from ~0.75 to ~0.64.
        n = 200_000
        ch = channel_at(self.LINK, 30.0)
        assert (1.0 - ch.P_loss) * ch.P_DCR > 0.1
        k_a, outcomes = quantum_phase(n, ch, derive_seed(19, 1))
        source = outcomes.detection_source
        p_det = 1.0 - ch.P_loss * (1.0 - ch.P_DCR)
        dark = ch.P_DCR * (ch.P_loss + (1.0 - ch.P_loss) / 2.0) / p_det
        theory = {SOURCE_DARK: dark,
                  SOURCE_DEPOLARIZED: (1.0 - dark) * ch.P_depolar,
                  SOURCE_PHOTON: (1.0 - dark) * (1.0 - ch.P_depolar)}
        for code, theta in theory.items():
            se = math.sqrt(theta * (1.0 - theta) / len(source))
            assert abs(float((source == code).mean()) - theta) <= 4 * se, code
        keep = outcomes.basis_match
        qber = float((k_a[keep] != outcomes.bob_bit[keep]).mean())
        se = math.sqrt(ch.P_flip * (1.0 - ch.P_flip) / int(keep.sum()))
        assert abs(qber - ch.P_flip) <= 4 * se


class TestSift:
    def test_hand_traced_example(self):
        k_a = np.array([0, 1], dtype=np.uint8)
        b_a = np.array([0, 1], dtype=np.uint8)
        b_b = np.array([0, 1], dtype=np.uint8)
        outcomes = PulseOutcomes(
            detection_source=np.array(
                [SOURCE_PHOTON, SOURCE_PHOTON], dtype=np.uint8),
            basis_match=(b_a == b_b),
            bob_bit=np.array([0, 1], dtype=np.uint8))
        sifted_a, sifted_b = sift(k_a, outcomes)
        assert sifted_a.tolist() == [0, 1]
        assert sifted_b.tolist() == [0, 1]

    def test_all_lost(self):
        outcomes = PulseOutcomes(
            detection_source=np.zeros(0, dtype=np.uint8),
            basis_match=np.zeros(0, dtype=bool),
            bob_bit=np.zeros(0, dtype=np.uint8))
        empty = np.zeros(0, dtype=np.uint8)
        sifted_a, sifted_b = sift(empty, outcomes)
        assert len(sifted_a) == 0 and len(sifted_b) == 0

    def test_sift_fraction_concentrates_on_p(self):
        n = 200_000
        ch = channel_at(LINK, 25.0)
        fractions = []
        for i in range(50):
            _, outcomes = quantum_phase(n, ch, seed=derive_seed(15, i))
            fractions.append((outcomes.detected & outcomes.basis_match).sum() / n)
        se = math.sqrt(ch.p * (1 - ch.p) / n / 50)
        assert abs(float(np.mean(fractions)) - ch.p) <= 4 * se

    def test_length_mismatch_rejected(self):
        outcomes = PulseOutcomes(
            detection_source=np.full(2, SOURCE_PHOTON, dtype=np.uint8),
            basis_match=np.ones(2, dtype=bool),
            bob_bit=np.zeros(2, dtype=np.uint8))
        with pytest.raises(ValueError):
            sift(np.zeros(3, dtype=np.uint8), outcomes)


class TestControlledRandomization:
    def test_identity_at_zero(self):
        key = np.array([0, 1, 1, 0], dtype=np.uint8)
        out = controlled_randomization(key, 0.0, seed=1)
        assert np.array_equal(out, key)
        assert out is not key

    def test_half_flips_half(self):
        n = 100_000
        key = np.zeros(n, dtype=np.uint8)
        out = controlled_randomization(key, 0.5, seed=2)
        dist = int(out.sum())
        assert abs(dist - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_flip_rate_matches_p_extra(self):
        n = 200_000
        key = np.zeros(n, dtype=np.uint8)
        out = controlled_randomization(key, 0.05, seed=3)
        rate = out.mean()
        assert abs(rate - 0.05) <= 4 * math.sqrt(0.05 * 0.95 / n)

    def test_domain(self):
        with pytest.raises(ValueError):
            controlled_randomization(np.zeros(4, dtype=np.uint8), 0.6, seed=1)

    @pytest.mark.parametrize("p_extra", [0.05, 0.5])
    def test_flip_frequency_per_position(self, p_extra):
        n, seeds = 64, 4000
        key = np.tile(np.array([0, 1], dtype=np.uint8), n // 2)
        flips = np.zeros(n, dtype=np.int64)
        for i in range(seeds):
            flips += controlled_randomization(key, p_extra,
                                              derive_seed(21, i)) ^ key
        se = math.sqrt(p_extra * (1.0 - p_extra) / seeds)
        assert np.abs(flips / seeds - p_extra).max() <= 4 * se

    def test_input_not_modified(self):
        key = np.zeros(1000, dtype=np.uint8)
        out = controlled_randomization(key, 0.3, seed=4)
        assert out.any() and not key.any()


def reference_estimate_parameters(sifted_a, sifted_b, strategy: Strategy,
                                  p_extra: float, sec: SecurityParams, seed):
    """Estimation from a uniformly random subset of the sifted pairs, the
    oracle for estimate_parameters' prefix sample: the same result tuple,
    with the sample drawn by `seed` and the remaining keys as copies in
    key order."""
    n = len(sifted_a)
    if n < 2:
        return 0.0, 0.0, False, "no-signal", sifted_a, sifted_b
    rng = np.random.default_rng(seed)
    size = strategy.sample_size(n)
    idx = rng.choice(n, size=size, replace=False)
    q_hat = float(np.count_nonzero(sifted_a[idx] != sifted_b[idx]) / size)
    q_inf = protocol.infer_qber(q_hat, p_extra)
    clamped = q_hat < p_extra
    abort_cause = "qber-threshold" if q_inf >= sec.Q_t else None
    mask = np.ones(n, dtype=bool)
    mask[idx] = False
    return q_hat, q_inf, clamped, abort_cause, sifted_a[mask], sifted_b[mask]


class TestEstimateParameters:
    def test_identical_keys(self):
        key = np.random.default_rng(4).integers(0, 2, 1000, dtype=np.uint8)
        q_hat, q_inf, clamped, cause, rem_a, rem_b = estimate_parameters(
            key, key.copy(), Strategy(FRACTION, 1 / 3), 0.0, SEC)
        assert q_hat == 0.0 and q_inf == 0.0
        assert cause is None and not clamped
        assert len(rem_a) == 1000 - 333

    def test_fully_mismatched_aborts(self):
        a = np.zeros(1000, dtype=np.uint8)
        b = np.ones(1000, dtype=np.uint8)
        q_hat, q_inf, _, cause, _, _ = estimate_parameters(
            a, b, Strategy(FRACTION, 1 / 3), 0.0, SEC)
        assert q_hat == 1.0 and cause == "qber-threshold"

    def test_sample_positions_removed(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2, 500, dtype=np.uint8)
        b = a.copy()
        strategy = Strategy(COUNT, 100.0)
        _, _, _, _, rem_a, rem_b = estimate_parameters(
            a, b, strategy, 0.0, SEC)
        assert len(rem_a) == len(rem_b) == 400
        # The first 100 pairs are the sample; the rest are views, not copies.
        assert rem_a.base is a and rem_b.base is b
        assert np.array_equal(rem_a, a[100:]) and np.array_equal(rem_b, b[100:])

    def test_unequal_keys_rejected(self):
        with pytest.raises(ValueError,
                           match="^sifted keys must have equal length$"):
            estimate_parameters(np.zeros(5, dtype=np.uint8),
                                np.zeros(4, dtype=np.uint8),
                                Strategy(COUNT, 1.0), 0.0, SEC)

    def test_clamped_inference_flag(self):
        key = np.random.default_rng(9).integers(0, 2, 1000, dtype=np.uint8)
        q_hat, q_inf, clamped, cause, _, _ = estimate_parameters(
            key, key.copy(), Strategy(FRACTION, 1 / 3), 0.3, SEC)
        assert q_hat == 0.0
        assert clamped
        assert q_inf == 0.0
        assert cause is None

    def test_no_signal_aborts(self):
        # Fewer than two sifted bits: nothing is sampled or removed.
        for n in (0, 1):
            key = np.zeros(n, dtype=np.uint8)
            q_hat, q_inf, clamped, cause, rem_a, rem_b = estimate_parameters(
                key, key, Strategy(FRACTION, 1 / 3), 0.0, SEC)
            assert cause == "no-signal"
            assert (q_hat, q_inf, clamped) == (0.0, 0.0, False)
            assert len(rem_a) == len(rem_b) == n


class TestPrefixSample:
    """Given their count, the sifted pairs are i.i.d., so the first s pairs
    are as good a sample as a uniform s-subset. Both estimations run on the
    same sifted keys of real runs (m_F = 1000 planned with g = 0.1 at a
    fixed P_extra = 0.01), and the disagreements each puts in the sample
    and leaves in the remaining key agree in mean and in variance within 4
    standard errors of the paired differences over the runs."""

    RUNS = 2000

    @pytest.mark.parametrize("d", [5.0, 65.0])
    def test_same_law_as_random_subset(self, d):
        the_plan = plan(d, 1000, FRACTION, LINK, SEC, g=0.1, p_extra=0.01)
        channel = channel_at(LINK, d)
        counts = []     # per run: (sample, rest) by prefix, then by subset
        for seed in range(self.RUNS):
            rng = np.random.default_rng(seed)
            a, b = sift(*quantum_phase(the_plan.N_F, channel, rng))
            b = controlled_randomization(b, 0.01, rng)
            total = np.count_nonzero(a != b)
            row = []
            for rem_a, rem_b in (
                    estimate_parameters(a, b, the_plan.strategy, 0.01,
                                        SEC)[4:],
                    reference_estimate_parameters(a, b, the_plan.strategy,
                                                  0.01, SEC, rng)[4:]):
                rest = np.count_nonzero(rem_a != rem_b)
                row += [total - rest, rest]
            counts.append(row)
        counts = np.array(counts, dtype=float)
        prefix, subset = counts[:, :2], counts[:, 2:]
        assert prefix[:, 0].mean() > 1.0    # the sample sees disagreements
        for diff in (prefix - subset,       # means
                     (prefix - prefix.mean(axis=0)) ** 2     # variances
                     - (subset - subset.mean(axis=0)) ** 2):
            se = diff.std(axis=0, ddof=1) / math.sqrt(self.RUNS)
            assert np.all(np.abs(diff.mean(axis=0)) <= 4 * se)


class TestRunProtocol:
    def test_replay_determinism(self):
        strategy = Strategy(FRACTION, 1 / 3)
        r1 = run_protocol(LINK, SEC, 25.0, 50_000, strategy, 0.01, seed=99)
        r2 = run_protocol(LINK, SEC, 25.0, 50_000, strategy, 0.01, seed=99)
        d1 = r1.to_json_dict(emit_keys=True)
        d2 = r2.to_json_dict(emit_keys=True)
        assert json.dumps(d1) == json.dumps(d2)
        assert np.array_equal(r1.final_key, r2.final_key)

    def test_zero_distance_collapse(self):
        # No noise: never aborts and the output is the deterministic
        # fixed point of the full remaining key length.
        r = run_protocol(LINK, SEC, 0.0, 10_000, Strategy(FRACTION, 1 / 3),
                         0.0, seed=3)
        assert not r.aborted
        assert r.verified
        assert r.Q_hat == 0.0
        assert r.m == output_length_fixed_point(float(r.l), SEC.eps_max)
        assert r.k == float(r.l)

    def test_record_invariants(self):
        r = run_protocol(LINK, SEC, 25.0, 100_000, Strategy(COUNT, 500.0),
                         0.02, seed=4)
        assert r.l == r.n_sifted - r.sample_size
        assert r.m <= r.l
        assert r.n_exp >= 0
        if r.aborted:
            assert r.m == 0

    def test_t_quantum_clock_model(self):
        ch = channel_at(LINK, 25.0)
        r = run_protocol(LINK, SEC, 25.0, 10_000, Strategy(FRACTION, 1 / 3),
                         0.0, seed=5)
        expect = 10_000 * ch.s + ch.tau + ch.window + LINK.DD
        assert r.t_quantum == pytest.approx(expect, rel=1e-12)

    def test_randomized_run_mismatch_rate(self):
        # After controlled randomization the sifted mismatch concentrates
        # on effective_flip(P_flip, P_extra); with d=0 that is P_extra.
        r = run_protocol(LINK, SEC, 0.0, 200_000, Strategy(FRACTION, 1 / 3),
                         0.04, seed=6)
        se = math.sqrt(0.04 * 0.96 / r.sample_size)
        assert abs(r.Q_hat - 0.04) <= 4 * se

    def test_mismatch_concentrates_on_effective_flip(self):
        # With channel noise and artificial noise together, the sampled
        # error rate sits on the XOR-composed rate.
        d, p_extra = 50.0, 0.03
        ch = channel_at(LINK, d)
        target = effective_flip(ch.P_flip, p_extra)
        r = run_protocol(LINK, SEC, d, 2_000_000, Strategy(FRACTION, 1 / 3),
                         p_extra, seed=10)
        se = math.sqrt(target * (1 - target) / r.sample_size)
        assert abs(r.Q_hat - target) <= 4 * se

    def test_final_key_json_emission_policy(self):
        r = run_protocol(LINK, SEC, 10.0, 300_000, Strategy(FRACTION, 1 / 3),
                         0.0, seed=7)
        assert r.m > 4096
        assert r.to_json_dict()["final_key"] is None
        assert r.to_json_dict(emit_keys=True)["final_key"] == bits_to_hex(r.final_key)
        small = run_protocol(LINK, SEC, 50.0, 50_000, Strategy(FRACTION, 1 / 3),
                             0.0, seed=8)
        assert small.m <= 4096
        assert small.to_json_dict()["final_key"] == bits_to_hex(small.final_key)

    def test_no_emission_is_no_signal(self):
        # eta_e = 0: no photon ever leaves, and d = 0 has no dark counts.
        r = run_protocol(LinkParams(eta_e=0.0), SEC, 0.0, 100_000,
                         Strategy(FRACTION, 1 / 3), 0.0, seed=12)
        assert r.n_sifted == 0
        assert r.aborted and r.abort_cause == "no-signal"
        assert r.m == 0 and r.final_key is None and r.n_exp == 0

    def test_peak_per_sifted_bit(self):
        # A planned m_F = 1e5 run at 30 km sifts ~127k bits. The bound
        # holds only if the per-detection arrays are freed once sift
        # returns. A first, untraced run imports numpy.random and
        # numpy.fft, which numpy loads lazily.
        the_plan = plan(30.0, 100_000, COUNT, LINK, SEC)
        protocol.run_from_plan(the_plan, LINK, SEC, seed=1)
        tracemalloc.start()
        try:
            r = protocol.run_from_plan(the_plan, LINK, SEC, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.m >= 100_000
        assert peak <= 45 * r.n_sifted

    # Each case holds for any random stream, not for one seed's luck:
    # - count: a lossless link at 0 km detects every pulse and makes no
    #   error, so Q_hat = 0. 30 pulses sift n <= 30 bits, the sample takes
    #   floor(n/2) of them (1000 > n/2) and leaves ceil(n/2) <= 15 <
    #   MIN_KEY_LEN. Only n <= 1 (no-signal) escapes: 31 / 2**30 < 3e-8.
    # - sqrt: at 150 km, past the reference link's limit distance (77.9 km),
    #   P_flip = 0.455 > Q_t, so Q_hat concentrates on 0.3 + 0.4 * 0.455 =
    #   0.482, and the abort needs only Q_hat >= 0.3 + 0.4 * Q_t = 0.336.
    #   1e8 pulses sift 62,250 +- 250 bits, of which ~2,490 are sampled;
    #   by Hoeffding the sample reads below 0.336 with probability at most
    #   exp(-2 * 2,400 * 0.146**2) < 1e-44.
    @pytest.mark.parametrize("link, d, n_pulses, strategy, p_extra, cause", [
        pytest.param(LinkParams(eta_e=1.0, eta_d=1.0), 0.0, 30,
                     Strategy(COUNT, 1000.0), 0.0, "key-too-short",
                     id="count-0.0-key-too-short"),
        pytest.param(LINK, 150.0, 10 ** 8, Strategy(SQRT, 10.0), 0.3,
                     "qber-threshold", id="sqrt-0.3-qber-threshold"),
    ])
    def test_abort_cause_leaves_no_key(self, link, d, n_pulses, strategy,
                                       p_extra, cause):
        r = run_protocol(link, SEC, d, n_pulses, strategy, p_extra, seed=0)
        assert r.aborted and r.abort_cause == cause
        assert r.m == 0 and r.final_key is None and r.n_exp == 0


class TestOutOfMemory:
    # Each stage of a planned run that reaches extraction, with the stage
    # its MemoryError is reported at: sifting is part of the quantum phase,
    # and estimation, which draws nothing, is a stage of its own.
    @pytest.mark.parametrize("name, stage", [
        *((name, name) for name in STAGES),
        ("estimate_parameters", "estimate_parameters"),
        ("sift", "quantum_phase")])
    def test_stage_out_of_memory_is_infeasible(self, monkeypatch, name,
                                               stage):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 1.29 GiB")

        monkeypatch.setattr(protocol, name, exhausted)
        the_plan = plan(30.0, 1000, COUNT, LINK, SEC)
        with pytest.raises(InfeasibleError,
                           match=f"^{stage}: the run of N = {the_plan.N_F} "
                                 "pulses does not fit in memory$") as exc:
            protocol.run_from_plan(the_plan, LINK, SEC, seed=1)
        assert exc.value.stage == stage
        assert exc.value.__cause__ is None


class TestBitsToHex:
    def test_empty(self):
        assert bits_to_hex(np.zeros(0, dtype=np.uint8)) == ""

    def test_known_pattern(self):
        bits = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8)
        assert bits_to_hex(bits) == "aa"

    def test_padding(self):
        assert bits_to_hex(np.array([1], dtype=np.uint8)) == "80"
