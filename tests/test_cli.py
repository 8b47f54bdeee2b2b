import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlbb84.cli import (EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, SIM_COLUMNS,
                        main)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read_rows(path):
    return list(csv.DictReader(path.read_text().splitlines()))


class TestLinkInfo:
    def test_table1_d0(self, capsys):
        code, out = run_cli(capsys, "link-info", "--distance", "0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["p"] == pytest.approx(0.06)
        assert doc["P_flip"] == 0.0
        assert 70 < doc["d_lim"] < 90

    def test_table1_d50(self, capsys):
        code, out = run_cli(capsys, "link-info", "--distance", "50")
        doc = json.loads(out)
        assert doc["P_loss"] == pytest.approx(0.988, abs=1e-12)

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": {"R": 0.4}, "security": {}}))
        _, out = run_cli(capsys, "link-info", "--config", str(cfg),
                         "--distance", "50")
        doc = json.loads(out)
        assert doc["P_loss"] == pytest.approx(1 - 0.12 * 10 ** -2, abs=1e-12)

    def test_infinite_distance_is_error(self, capsys):
        code, out = run_cli(capsys, "link-info", "--distance", "inf")
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "invalid"

    def test_nan_security_param_is_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"security": {"f_max": NaN}}')
        code, out = run_cli(capsys, "link-info", "--config", str(cfg))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "invalid"

    def test_bad_config_is_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": {"typo_field": 1}}))
        code, out = run_cli(capsys, "link-info", "--config", str(cfg))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "invalid"


    def test_default_distance_is_zero(self, capsys):
        code, out = run_cli(capsys, "link-info")
        assert code == EXIT_OK
        assert json.loads(out)["d"] == 0.0

    @pytest.mark.parametrize("text", [
        "[]",
        '"x"',
        '{"link": []}',
        '{"security": 0.05}',
        '{"securty": {"Q_t": 0.05}}',
        '{"link": {"R": null}}',
        '{"link": {"R": true}}',
        '{"link": {"R": [0.2]}}',
        '{"link": {"R": {"value": 0.2}}}',
        '{"security": {"Q_t": null}}',
        '{"link": {"d": 25}}',
    ])
    def test_malformed_config_is_error(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, out = run_cli(capsys, "link-info", "--config", str(cfg))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "invalid"


NEGATIVE_DISTANCE = {"error": "invalid", "message": "d must be >= 0, got -5.0"}


@pytest.mark.parametrize("argv", [
    ("link-info", "--distance", "-5"),
    ("plan", "--distance", "-5", "--mf", "1000"),
    ("run", "--distance", "-5", "--n", "1000"),
])
def test_negative_distance_is_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_ERROR
    assert json.loads(out) == NEGATIVE_DISTANCE


# Far beyond float range: sizing it overflows instead of planning.
HUGE_MF = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ("plan", "--distance", "30", "--mf", HUGE_MF),
    ("run", "--distance", "30", "--mf", HUGE_MF),
    ("plan", "--distance", "nan", "--mf", "1000"),
    ("run", "--distance", "nan", "--n", "100"),
    # Rejected by the argument parser itself.
    ("plan", "--distance", "-inf", "--mf", "1000"),
    ("plan", "--distance", "30", "--mf", "abc"),
    ("plan", "--distance", "30"),
    ("run", "--distance", "30", "--n", "10", "--mf", "5"),
    # Malformed requests, not requests the link cannot serve.
    ("plan", "--distance", "30", "--mf", "0"),
    ("run", "--distance", "30", "--mf", "-5"),
    ("run", "--distance", "30", "--n", "1000", "--seed", "-1"),
    ("plan", "--distance", "30", "--mf", "1000", "--p-extra", "0", "--g", "1"),
    ("plan", "--distance", "30", "--mf", "1000", "--p-extra", "0", "--g", "0"),
])
def test_unusable_numbers_are_errors(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_ERROR
    assert json.loads(out)["error"] == "invalid"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--help"])
    assert exc.value.code == 0
    assert "--distance" in capsys.readouterr().out


class TestPlanCommand:
    def test_feasible_plan(self, capsys):
        code, out = run_cli(capsys, "plan", "--distance", "30",
                            "--mf", "1000", "--strategy", "count")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["N_F"] >= 1
        assert doc["expected_m"] >= 1000

    def test_p_extra_zero_bypasses_optimization(self, capsys):
        code, out = run_cli(capsys, "plan", "--distance", "50",
                            "--mf", "1000", "--strategy", "count",
                            "--p-extra", "0")
        doc = json.loads(out)
        assert doc["P_extra_opt"] == 0.0
        assert doc["N_F"] == 486535

    def test_infeasible_distance(self, capsys):
        code, out = run_cli(capsys, "plan", "--distance", "120", "--mf", "1000")
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert doc["error"] == "infeasible"
        assert doc["stage"]

    def test_subnormal_distance_plans(self, capsys):
        # At d = 1e-300 the intrinsic flip is ~1e-300, so the budget at
        # zero added noise overflows: that noise level is infeasible, and
        # the plan is the one that d = 1e-9 gets.
        code, out = run_cli(capsys, "plan", "--distance", "1e-300",
                            "--mf", "1000", "--strategy", "sqrt")
        assert code == EXIT_OK
        assert json.loads(out)["N_F"] == 43097

    @pytest.mark.parametrize("cmd", ["plan", "run"])
    def test_half_extra_noise_is_invalid(self, capsys, cmd):
        # A malformed request, not one the link cannot serve.
        code, out = run_cli(capsys, cmd, "--distance", "30", "--mf", "1000",
                            "--p-extra", "0.5")
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": "invalid",
            "message": "p_extra must be in [0, 1/2), got 0.5"}

    @pytest.mark.parametrize("strategy, stage", [
        ("fraction", "forecast"), ("count", "forecast"),
        ("sqrt", "photon_budget"),
    ], ids=["fraction", "count", "sqrt"])
    @pytest.mark.parametrize("distance", ["1e-150", "1e-300"])
    @pytest.mark.parametrize("cmd", ["plan", "run"])
    def test_forecast_overflow_is_infeasible(self, capsys, cmd, distance,
                                             strategy, stage):
        # As at d = 0, a link this close without added noise cannot be
        # planned: fraction's and count's N_F is finite but its forecasts
        # overflow, and sqrt's budget itself is not a finite float.
        code, out = run_cli(capsys, cmd, "--distance", distance, "--mf",
                            "1000", "--strategy", strategy, "--p-extra", "0")
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert doc["error"] == "infeasible"
        assert doc["stage"] == stage

    def test_forecast_overflow_message(self, capsys):
        # The message names the N_F whose forecasts overflow.
        code, out = run_cli(capsys, "plan", "--distance", "1e-150", "--mf",
                            "1000", "--strategy", "count", "--p-extra", "0")
        assert code == EXIT_INFEASIBLE
        assert json.loads(out) == {
            "error": "infeasible", "stage": "forecast",
            "message": "forecast: the key-length forecasts at N_F = "
                       "7.452e+155 overflow a float"}

    @pytest.mark.parametrize("extra, stage", [
        ((), "optimal_extra_noise"),
        (("--p-extra", "0.01"), "photon_budget"),
    ])
    def test_subnormal_fraction_is_infeasible(self, capsys, extra, stage):
        # g*p underflows to 0, so no noise level has a finite budget.
        code, out = run_cli(capsys, "plan", "--distance", "30", "--mf", "1000",
                            "--g", "5e-324", *extra)
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert doc["error"] == "infeasible"
        assert doc["stage"] == stage


class TestRunCommand:
    def test_byte_identical_repeats(self, capsys):
        args = ("run", "--distance", "25", "--n", "50000",
                "--strategy", "fraction", "--seed", "42")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1.encode() == out2.encode()

    def test_planned_mode(self, capsys):
        code, out = run_cli(capsys, "run", "--distance", "30", "--mf", "500",
                            "--strategy", "sqrt", "--seed", "1")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["m"] >= 500
        assert doc["seed"] == 1

    def test_large_key_omitted_without_emit_keys(self, capsys):
        args = ("run", "--distance", "10", "--n", "300000",
                "--strategy", "fraction", "--seed", "4")
        _, out = run_cli(capsys, *args)
        doc = json.loads(out)
        assert doc["m"] > 4096
        assert doc["final_key"] is None
        _, out = run_cli(capsys, *args, "--emit-keys")
        withkey = json.loads(out)
        assert len(withkey["final_key"]) == math.ceil(withkey["m"] / 8) * 2

    @pytest.mark.parametrize("strategy", ["count", "sqrt"])
    @pytest.mark.parametrize("request_args", [
        ("run", "--n", "100000"), ("plan", "--mf", "1000", "--p-extra", "0"),
    ], ids=["run-fixed-n", "plan-fixed-noise"])
    def test_underflowing_accuracy_names_a0(self, capsys, tmp_path,
                                            request_args, strategy):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"security": {"eps": 1e-300}}))
        code, out = run_cli(capsys, *request_args, "--distance", "30",
                            "--strategy", strategy, "--config", str(cfg))
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert (doc["error"], doc["stage"]) == ("infeasible", "a0")

    def test_alpha_beta_zeroing_gamma_is_invalid(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"security": {"alpha": -1, "beta": 0}}))
        code, out = run_cli(capsys, "run", "--n", "100000", "--distance",
                            "30", "--strategy", "count", "--config", str(cfg))
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": "invalid",
            "message": "alpha and beta must keep 1 + alpha * 10**(-beta * "
                       "p_hat) > 0 for p_hat in [0, 1/2], got alpha=-1.0, "
                       "beta=0.0"}

    def test_alpha_overflowing_gamma_is_invalid(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"security": {"alpha": 1e300,
                                                "beta": -600}}))
        for request in (("plan", "--mf", "1000"), ("run", "--n", "100000")):
            code, out = run_cli(capsys, *request, "--distance", "30",
                                "--strategy", "count", "--config", str(cfg))
            assert code == EXIT_ERROR
            assert json.loads(out) == {
                "error": "invalid",
                "message": "eps, alpha and beta must keep gamma = eps * (1 + "
                           "alpha * 10**(-beta * p_hat)) squared finite for "
                           "p_hat in [0, 1/2], got eps=0.1, alpha=1e+300, "
                           "beta=-600.0"}

    def test_flip_rounding_past_half_is_defined(self, capsys, tmp_path):
        # P_loss rounds to 1 on this link, and P_flip = (P_DCR/2) / P_DCR
        # rounded to 0.5000000000000199 before it was clamped to 1/2.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": {
            "eta_e": 5e-324, "eta_d": 4.8166052184640595e-235,
            "R": 954.3586852463228, "R_DCR": 10.078891797145275,
            "R_depolar": 2.50009974393263e-259, "GD_A": 5e-324,
            "GD_B": 1000000.0}}))
        code, out = run_cli(capsys, "plan", "--distance", "78", "--mf",
                            "1000", "--strategy", "fraction", "--g", "0.1",
                            "--p-extra", "0", "--config", str(cfg))
        assert code == EXIT_INFEASIBLE
        assert json.loads(out)["error"] == "infeasible"
        code, out = run_cli(capsys, "run", "--distance", "78", "--n", "1000",
                            "--config", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["abort_cause"] == "no-signal"

    def test_fixed_n_sqrt_without_signal_is_infeasible(self, capsys,
                                                        tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link": {"eta_d": 0, "R_DCR": 0}}))
        request = ("run", "--n", "100000", "--distance", "30", "--p-extra",
                   "0.01", "--config", str(cfg))
        code, out = run_cli(capsys, *request, "--strategy", "sqrt")
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert (doc["error"], doc["stage"]) == ("infeasible",
                                                "fixed_n_strategy")
        for kind in ("fraction", "count"):
            code, out = run_cli(capsys, *request, "--strategy", kind)
            assert code == EXIT_OK
            assert json.loads(out)["abort_cause"] == "no-signal"

    def test_no_wall_clock_option(self, capsys):
        # A run reports no wall time, so there is no flag to ask for it.
        code, out = run_cli(capsys, "run", "--distance", "25", "--n", "20000",
                            "--timings")
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": "invalid",
            "message": "vlbb84: unrecognized arguments: --timings"}

    @pytest.mark.parametrize("n", ["10", "100000"])
    def test_half_extra_noise_is_error_at_any_n(self, capsys, n):
        # 10 pulses sift too few bits to estimate; the noise is still
        # rejected, with the same error as when the run estimates.
        code, out = run_cli(capsys, "run", "--distance", "30", "--n", n,
                            "--p-extra", "0.5")
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": "invalid",
            "message": "p_extra must be in [0, 1/2), got 0.5"}

    @pytest.mark.parametrize("n", ["0", "-5"])
    @pytest.mark.parametrize("strategy", ["fraction", "count", "sqrt"])
    def test_nonpositive_pulses_have_one_message(self, capsys, strategy, n):
        code, out = run_cli(capsys, "run", "--distance", "30", "--n", n,
                            "--strategy", strategy)
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": "invalid", "message": f"n_pulses must be >= 1, got {n}"}

    @pytest.mark.parametrize("strategy", ["fraction", "count", "sqrt"])
    def test_out_of_range_noise_has_one_message(self, capsys, strategy):
        code, out = run_cli(capsys, "run", "--distance", "30", "--n", "100000",
                            "--strategy", strategy, "--p-extra", "0.6")
        assert code == EXIT_ERROR
        assert json.loads(out) == {
            "error": "invalid",
            "message": "p_extra must be in [0, 1/2), got 0.6"}

    @pytest.mark.parametrize("args, n", [
        (("--mf", "1000", "--distance", "1e-140", "--strategy", "count",
          "--p-extra", "0"), None),
        (("--mf", "1000", "--distance", "1e-20", "--strategy", "sqrt",
          "--p-extra", "0"), None),
        (("--distance", "30", "--n", "10000000000000000000"),
         "10000000000000000000"),
    ], ids=["planned-count", "planned-sqrt", "fixed-n"])
    def test_pulses_beyond_int64_are_infeasible(self, capsys, args, n):
        # The sampler takes N as an int64; the plan itself stays valid.
        code, out = run_cli(capsys, "run", *args)
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert doc["error"] == "infeasible"
        assert doc["stage"] == "quantum_phase"
        assert "pulses exceeds the sampler's limit of 2**63 - 1" in doc["message"]
        if n is not None:
            assert f"N = {n} pulses" in doc["message"]

    @pytest.mark.parametrize("strategy", ["fraction", "count", "sqrt"])
    def test_pulses_beyond_float_are_infeasible(self, capsys, strategy):
        code, out = run_cli(capsys, "run", "--distance", "30",
                            "--n", str(10 ** 400), "--strategy", strategy)
        assert code == EXIT_INFEASIBLE
        assert json.loads(out) == {
            "error": "infeasible", "stage": "fixed_n_strategy",
            "message": "fixed_n_strategy: N = 1.000e+400 pulses overflow a "
                       "float"}

    def test_detections_beyond_memory_are_infeasible(self, capsys):
        # N fits int64, but its ~2.8e17 detections do not fit memory; numpy
        # refuses the allocation at once.
        code, out = run_cli(capsys, "run", "--distance", "30",
                            "--n", str(2 ** 63 - 1))
        assert code == EXIT_INFEASIBLE
        doc = json.loads(out)
        assert doc["error"] == "infeasible"
        assert doc["stage"] == "quantum_phase"
        assert doc["message"] == (f"quantum_phase: the run of N = "
                                  f"{2 ** 63 - 1} pulses does not fit in "
                                  "memory")

    def test_out_of_memory_is_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.6 GiB")

        monkeypatch.setattr("vlbb84.cli.run_protocol", exhausted)
        code, out = run_cli(capsys, "run", "--distance", "30",
                            "--n", "100000000000")
        assert code == EXIT_ERROR
        doc = json.loads(out)
        assert doc["error"] == "invalid"
        assert "allocate" in doc["message"]


# A run whose quantum phase needs more address space than the child may
# map: 1e10 pulses at 5 km give ~9.5e8 detections, ~1 GB of coin bytes,
# against a limit of 256 MB above what the child has mapped on entry.
LIMITED_RUN = """
import resource, sys
from vlbb84.cli import main
with open("/proc/self/statm") as fh:
    mapped = int(fh.read().split()[0]) * resource.getpagesize()
limit = mapped + 256 * 2 ** 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(["run", "--distance", "5", "--n", "10000000000"]))
"""


@pytest.mark.skipif(sys.platform != "linux",
                    reason="reads /proc and needs RLIMIT_AS")
def test_run_beyond_an_address_space_limit_is_infeasible():
    # The limit is set in the child process only, never in the test runner.
    out = subprocess.run([sys.executable, "-c", LIMITED_RUN],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == EXIT_INFEASIBLE, out.stderr
    assert json.loads(out.stdout) == {
        "error": "infeasible", "stage": "quantum_phase",
        "message": "quantum_phase: the run of N = 10000000000 pulses does "
                   "not fit in memory"}


class TestSweepCommand:
    def test_fixed_n_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "10,25",
                          "--n", "50000", "--strategies", "fraction",
                          "--iterations", "3", "--seed", "5",
                          "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert len(rows) == 2
        assert set(SIM_COLUMNS) <= set(rows[0].keys())
        assert all(r["status"] == "ok" for r in rows)
        assert float(rows[0]["abort_rate"]) == 0.0

    def test_fixed_n_resolves_count_and_sqrt(self, capsys, tmp_path):
        # In fixed-N mode the count/sqrt tuning constants come from the
        # accuracy floor at the intrinsic flip rate.
        out_csv = tmp_path / "fx.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "40",
                          "--n", "500000", "--strategies", "count,sqrt",
                          "--p-extra", "0", "--iterations", "2",
                          "--seed", "11", "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert [r["strategy"] for r in rows] == ["count", "sqrt"]
        assert all(r["status"] == "ok" for r in rows)
        assert all(float(r["m_mean"]) > 0 for r in rows)

    def test_fixed_n_too_small_is_infeasible(self, capsys, tmp_path):
        # The count sample floor exceeds the whole sifted key here.
        out_csv = tmp_path / "small.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "40",
                          "--n", "100000", "--strategies", "count",
                          "--p-extra", "0", "--iterations", "2",
                          "--seed", "11", "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert rows[0]["status"] == "infeasible:strategy_stats"

    def test_fixed_n_half_extra_noise_is_error(self, capsys, tmp_path):
        # p_extra = 1/2 erases the key and cannot be inverted.
        code, out = run_cli(capsys, "sweep", "--distances", "30",
                            "--n", "50000", "--p-extra", "0.5",
                            "--out", str(tmp_path / "half.csv"))
        assert code == EXIT_ERROR
        doc = json.loads(out)
        assert doc["error"] == "invalid"
        assert "p_extra" in doc["message"]

    @pytest.mark.parametrize("argv", [
        ("--n", "1000", "--plan-only"),
        ("--n", "1000", "--iterations", "0"),
        ("--mf", "1000", "--strategies", "fraction,foo"),
    ])
    def test_bad_arguments_are_errors(self, capsys, tmp_path, argv):
        out_csv = tmp_path / "bad.csv"
        code, out = run_cli(capsys, "sweep", "--distances", "30", *argv,
                            "--out", str(out_csv))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "invalid"
        assert not out_csv.exists()

    def test_zero_target_is_error(self, capsys, tmp_path):
        out_csv = tmp_path / "zero.csv"
        code, out = run_cli(capsys, "sweep", "--distances", "30",
                            "--mf", "0", "--out", str(out_csv))
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "invalid"
        assert not out_csv.exists()

    def test_negative_distance_is_error(self, capsys, tmp_path, monkeypatch):
        # Every distance is checked before the first point is simulated.
        runs = []
        monkeypatch.setattr("vlbb84.cli.run_protocol",
                            lambda *args: runs.append(args))
        out_csv = tmp_path / "neg.csv"
        code, out = run_cli(capsys, "sweep", "--distances", "5,-5",
                            "--mf", "1000", "--iterations", "1",
                            "--out", str(out_csv))
        assert code == EXIT_ERROR
        assert json.loads(out) == NEGATIVE_DISTANCE
        assert not out_csv.exists()
        assert runs == []

    def test_sweep_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--distances", "25", "--mf", "300", "--strategies",
                "count", "--iterations", "2", "--seed", "9")
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_byte_identical_across_processes(self, tmp_path):
        # As criterion 10 for run: separate interpreters, here also with
        # different string-hash seeds, write the same simulating CSV.
        outputs = []
        for hash_seed in ("0", "1"):
            out_csv = tmp_path / f"hash{hash_seed}.csv"
            cmd = [sys.executable, "-m", "vlbb84.cli", "sweep",
                   "--distances", "5,30", "--mf", "300",
                   "--strategies", "fraction,sqrt", "--iterations", "2",
                   "--seed", "13", "--out", str(out_csv)]
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            subprocess.run(cmd, capture_output=True, check=True, env=env)
            outputs.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b",ok\r\n") == 4

    def test_empty_distances_header_only(self, capsys, tmp_path):
        out_csv = tmp_path / "empty.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "", "--n", "1000",
                          "--out", str(out_csv))
        assert code == EXIT_OK
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].split(",") == SIM_COLUMNS

    def test_infeasible_point_recorded(self, capsys, tmp_path):
        out_csv = tmp_path / "inf.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "30,120",
                          "--mf", "500", "--strategies", "count",
                          "--iterations", "2", "--seed", "3",
                          "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("infeasible")

    def test_forecast_overflow_point_recorded(self, capsys, tmp_path):
        out_csv = tmp_path / "tiny.csv"
        code, _ = run_cli(capsys, "sweep", "--plan-only", "--distances",
                          "30,1e-200", "--mf", "1000", "--p-extra", "0",
                          "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert [r["status"] for r in rows] == ["ok", "infeasible:forecast"]

    def test_pulses_beyond_int64_are_an_infeasible_row(self, capsys, tmp_path):
        # d = 1e-140 without added noise plans N_F ~ 7e145 pulses, which
        # the sampler cannot draw: that point is a row, the sweep goes on.
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "1e-140,30",
                          "--mf", "1000", "--strategies", "count",
                          "--p-extra", "0", "--iterations", "1",
                          "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert [r["status"] for r in rows] == ["infeasible:quantum_phase", "ok"]

    @pytest.mark.parametrize("strategy", ["fraction", "count", "sqrt"])
    def test_fixed_n_forecast_overflow_is_an_infeasible_row(
            self, capsys, tmp_path, strategy):
        # The forecast at this N squares a key length beyond float range,
        # the same rule that makes such a plan infeasible.
        out_csv = tmp_path / "huge.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "30",
                          "--n", str(10 ** 160), "--strategies", strategy,
                          "--iterations", "1", "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert [r["status"] for r in rows] == ["infeasible:forecast"]

    def test_fixed_n_beyond_float_is_an_infeasible_row(self, capsys, tmp_path):
        out_csv = tmp_path / "huge.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "30",
                          "--n", str(10 ** 400), "--strategies",
                          "fraction,count,sqrt", "--iterations", "1",
                          "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert [r["status"] for r in rows] == [
            "infeasible:fixed_n_strategy"] * 3

    def test_detections_beyond_memory_are_infeasible_rows(self, capsys,
                                                          tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "30,40",
                          "--n", str(2 ** 63 - 1), "--iterations", "1",
                          "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert [r["status"] for r in rows] == ["infeasible:quantum_phase"] * 2

    def test_stage_beyond_memory_is_infeasible_row(self, capsys, tmp_path,
                                                  monkeypatch):
        # A MemoryError in a later stage is a row like any other infeasible
        # point, and the sweep goes on.
        def exhausted(*args):
            raise MemoryError("Unable to allocate 1.29 GiB")

        monkeypatch.setattr("vlbb84.protocol.cascade", exhausted)
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "5,30", "--mf",
                          "1000", "--iterations", "1", "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert [r["status"] for r in rows] == ["infeasible:cascade"] * 2

    def test_plan_only_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "plan.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "10,30",
                          "--mf", "1000", "--strategies", "fraction,count,sqrt",
                          "--plan-only", "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert len(rows) == 6
        assert all(int(r["N_F"]) >= 1 for r in rows)

    def test_plan_only_ignores_iterations(self, capsys, tmp_path):
        # A plan-only sweep runs nothing, so --iterations 0 is not an error
        # and writes the same CSV as the default.
        default_csv, zero_csv = tmp_path / "default.csv", tmp_path / "zero.csv"
        argv = ("sweep", "--plan-only", "--distances", "30", "--mf", "1000")
        assert run_cli(capsys, *argv, "--out", str(default_csv))[0] == EXIT_OK
        code, _ = run_cli(capsys, *argv, "--iterations", "0",
                          "--out", str(zero_csv))
        assert code == EXIT_OK
        assert zero_csv.read_bytes() == default_csv.read_bytes()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# CLI outputs frozen bit for bit: a sha256 prefix of the output and a few
# fields to read a mismatch by. A change that moves simulator outputs on
# purpose re-freezes these and says so in CHANGES.md.
#
# run --distance d <mode> --strategy s --seed 3 --emit-keys, in two parts:
# (digest of the JSON without CASCADE_FIELDS, N, m, abort_cause), then the
# values of CASCADE_FIELDS. Cascade's random stream moves only those three:
# the extractor hashes Alice's key, so no key and no other field depends on
# it.
CASCADE_FIELDS = ("n_exp", "f_realized", "verified")
FROZEN_RUNS = {
    ("--mf", "1000", "5", "fraction"): (
        ("249e61c2ae9f54bb", 64016, 1268, None),
        (313, 1.152869512559769, True)),
    ("--mf", "1000", "5", "count"): (
        ("74d71e404eaa41f5", 54934, 1074, None),
        (171, 1.4314130845588684, True)),
    ("--mf", "1000", "5", "sqrt"): (
        ("e4bc6d071e3f6754", 54253, 1059, None),
        (178, 1.2348912553685778, True)),
    ("--mf", "1000", "30", "fraction"): (
        ("3165b4c38c3f1886", 201052, 1268, None),
        (350, 1.0708130771082398, True)),
    ("--mf", "1000", "30", "count"): (
        ("3de8286c190837af", 172698, 1077, None),
        (179, 1.161341606199837, True)),
    ("--mf", "1000", "30", "sqrt"): (
        ("dfefd750f8bcdd06", 170524, 1059, None),
        (120, 0.7866997582939981, True)),
    ("--mf", "1000", "65", "fraction"): (
        ("51d5c450f20bd614", 1571881, 1039, None),
        (1135, 1.14709627657244, True)),
    ("--mf", "1000", "65", "count"): (
        ("96cf70f85348f005", 1412280, 1058, None),
        (1171, 1.079432443563836, True)),
    ("--mf", "1000", "65", "sqrt"): (
        ("6b8a660cbe7ab0e6", 1404440, 1051, None),
        (1240, 1.4000056256220894, True)),
    ("--n", "200000", "5", "fraction"): (
        ("3cac6e4ebf9b88df", 200000, 6015, None),
        (38, 0.551595021120456, False)),
    ("--n", "200000", "5", "count"): (
        ("97b0d6d45c0417ae", 200000, 4493, None),
        (81, 1.7373289362361175, False)),
    ("--n", "200000", "5", "sqrt"): (
        ("d3e26d6841abe23f", 200000, 4493, None),
        (81, 1.7373289362361175, False)),
    ("--n", "200000", "30", "fraction"): (
        ("378885384934252e", 200000, 1519, None),
        (202, 1.6790837270500203, True)),
    ("--n", "200000", "30", "count"): (
        ("d4308ae290259e70", 200000, 1405, None),
        (191, 1.9154798567688838, True)),
    ("--n", "200000", "30", "sqrt"): (
        ("dfd64bd4ea64a4f0", 200000, 1413, None),
        (189, 1.5185083954000518, True)),
    ("--n", "200000", "65", "fraction"): (
        ("8fc9081eaca798cb", 200000, 85, None),
        (189, 1.7468686026963713, True)),
    ("--n", "200000", "65", "count"): (
        ("84f1e7b3a4f9cb46", 200000, 52, None),
        (132, 1.2619727918063777, True)),
    ("--n", "200000", "65", "sqrt"): (
        ("d39d057ba2d08f26", 200000, 52, None),
        (132, 1.2619727918063777, True)),
}

# sweep --distances 5,30,65 <mode> --strategies fraction,count,sqrt
# --iterations 2 --seed 7: (digest of the CSV, (N, status) per row).
FROZEN_SWEEPS = {
    ("--mf", "1000"): ("b59eeeb85ac2e67d", [
        ("64016", "ok"), ("54934", "ok"), ("54253", "ok"),
        ("201052", "ok"), ("172698", "ok"), ("170524", "ok"),
        ("1571881", "ok"), ("1412280", "ok"), ("1404440", "ok")]),
    ("--n", "200000"): ("7e349df4941b722a", [
        ("200000", "ok"), ("200000", "ok"), ("200000", "ok"),
        ("200000", "ok"), ("200000", "ok"), ("200000", "ok"),
        ("200000", "ok"), ("", "infeasible:strategy_stats"),
        ("", "infeasible:strategy_stats")]),
}

# plan --distance d --mf 1000 --strategy s [--p-extra x]: (digest of the
# JSON, N_F, expected_m).
FROZEN_PLAN_DOCS = {
    ("5", "fraction", None): ("2485e00e0e5435a5", 64016, 1290),
    ("5", "count", None): ("5c17443a018977ba", 54934, 1116),
    ("5", "sqrt", None): ("8f11de4f71576281", 54253, 1091),
    ("30", "fraction", None): ("6065684ef14c4c9b", 201052, 1290),
    ("30", "count", None): ("66c417e358435622", 172698, 1118),
    ("30", "sqrt", None): ("abdd6ec11b3757bb", 170524, 1092),
    ("65", "fraction", None): ("40ee43ba93752907", 1571881, 1046),
    ("65", "count", None): ("c4086473718711c3", 1412280, 1066),
    ("65", "sqrt", None): ("e2ca1cfb9fea49ec", 1404440, 1057),
    ("30", "fraction", "0.01"): ("0a352a6eb179cb54", 201056, 1286),
    ("30", "count", "0.01"): ("a9bbf4bf0813c9ef", 183041, 1104),
    ("30", "sqrt", "0.01"): ("0996ad67ec181860", 181082, 1084),
}

# sweep --plan-only --distances 2,10,30,50,70,78 --mf 100000
# --strategies fraction,count,sqrt: (digest of the CSV, (N_F, status) per
# row). 78 km lies past d_lim.
FROZEN_PLAN_SWEEP = ("a7e9704e3122eed5", [
    ("2808185", "ok"), ("2000291", "ok"), ("1999948", "ok"),
    ("4275167", "ok"), ("2922864", "ok"), ("2922563", "ok"),
    ("12432951", "ok"), ("8376788", "ok"), ("8376473", "ok"),
    ("41195957", "ok"), ("27668793", "ok"), ("27668185", "ok"),
    ("267101550", "ok"), ("178621725", "ok"), ("178620830", "ok"),
    ("", "infeasible:optimal_extra_noise"),
    ("", "infeasible:optimal_extra_noise"),
    ("", "infeasible:optimal_extra_noise")])


class TestFrozenOutputs:
    @pytest.mark.parametrize("mode, value, d, strategy", list(FROZEN_RUNS))
    def test_run(self, capsys, mode, value, d, strategy):
        code, out = run_cli(capsys, "run", "--distance", d, mode, value,
                            "--strategy", strategy, "--seed", "3",
                            "--emit-keys")
        assert code == EXIT_OK
        doc = json.loads(out)
        # The output is the canonical dump of its document, so the digest
        # below covers every byte but the Cascade values.
        assert out == json.dumps(doc, indent=2) + "\n"
        cascade = tuple(doc.pop(name) for name in CASCADE_FIELDS)
        assert ((digest(json.dumps(doc, indent=2).encode()), doc["N"],
                 doc["m"], doc["abort_cause"]), cascade) == FROZEN_RUNS[
            mode, value, d, strategy]

    @pytest.mark.parametrize("mode, value", list(FROZEN_SWEEPS))
    def test_sweep(self, capsys, tmp_path, mode, value):
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "5,30,65", mode,
                          value, "--strategies", "fraction,count,sqrt",
                          "--iterations", "2", "--seed", "7",
                          "--out", str(out_csv))
        assert code == EXIT_OK
        rows = [(r["N"], r["status"]) for r in read_rows(out_csv)]
        assert (digest(out_csv.read_bytes()), rows) == FROZEN_SWEEPS[mode,
                                                                     value]

    @pytest.mark.parametrize("d, strategy, p_extra", list(FROZEN_PLAN_DOCS))
    def test_plan(self, capsys, d, strategy, p_extra):
        extra = () if p_extra is None else ("--p-extra", p_extra)
        code, out = run_cli(capsys, "plan", "--distance", d, "--mf", "1000",
                            "--strategy", strategy, *extra)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert (digest(out.encode()), doc["N_F"], doc["expected_m"]) == (
            FROZEN_PLAN_DOCS[d, strategy, p_extra])

    def test_plan_only_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "plan.csv"
        code, _ = run_cli(capsys, "sweep", "--plan-only", "--distances",
                          "2,10,30,50,70,78", "--mf", "100000", "--strategies",
                          "fraction,count,sqrt", "--out", str(out_csv))
        assert code == EXIT_OK
        rows = [(r["N_F"], r["status"]) for r in read_rows(out_csv)]
        assert (digest(out_csv.read_bytes()), rows) == FROZEN_PLAN_SWEEP


# A fuzz of main() in process: random configs, in the validated ranges, at
# their edges and at subnormals, with small requests to every command.
# Every answer is an exit code main() documents and one JSON document, and
# every error names what it rejects: none of these bare messages, which
# name no parameter and no stage, may reach the user.
BARE_MESSAGES = ("division by zero", "math domain error",
                 "expected non-negative integer",
                 "p < 0, p > 1 or p is NaN")
TINY = 5e-324
UNIT = st.sampled_from([0.0, TINY, 1e-300, 0.5, 1.0]) | st.floats(0.0, 1.0)
NONNEGATIVE = st.sampled_from([0.0, TINY, 1e-300, 1.0, 1e6]) | st.floats(0.0,
                                                                        1e3)
POSITIVE = st.sampled_from([TINY, 1e-300, 1.0, 1e6]) | st.floats(1e-3, 1e3)
LINK_FIELDS = {"eta_e": UNIT, "eta_d": UNIT, "std": UNIT, "R": NONNEGATIVE,
               "R_depolar": NONNEGATIVE, "R_DCR": NONNEGATIVE,
               "DD": NONNEGATIVE, "DT": NONNEGATIVE, "GD_A": NONNEGATIVE,
               "GD_B": NONNEGATIVE, "C": POSITIVE, "v_f": POSITIVE}
SECURITY_FIELDS = {
    "Q_t": st.sampled_from([TINY, 0.091, 0.5 - 2 ** -54])
    | st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    "f_max": st.sampled_from([1.0, 1.27, 2.0, 1e300]),
    "eps_max": st.sampled_from([TINY, 1e-300, 0.01, 1 - 2 ** -53]),
    "C_F": POSITIVE, "eps": POSITIVE,
    "alpha": st.sampled_from([-1.0, -1.0 + 2 ** -52, 0.0, 3.0, 1e300]),
    "beta": st.sampled_from([-600.0, -1.0, 0.0, 20.0, 1e300])}
DISTANCE = st.sampled_from([0.0, TINY, 1e-300, 5.0, 30.0, 78.0, 200.0])
STRATEGY = st.sampled_from(["fraction", "count", "sqrt"])
SIZING = st.fixed_dictionaries({}, optional={
    "--g": st.sampled_from(["0.1", "0.5", "1", repr(TINY)]),
    "--p-extra": st.sampled_from(["opt", "0", repr(TINY), "0.01", "0.49",
                                  "0.5"])})
SEEDS = st.sampled_from(["0", "1", str(2 ** 63 - 1), str(2 ** 64 + 5), "-1"])
# A planned run or sweep is simulated only when its plan is this small.
MAX_PLANNED_PULSES = 2_000_000


def command_line(draw, command: str) -> list[str]:
    """A small request to one command, without --config and --out."""
    if command == "link-info":
        return ["link-info", "--distance", repr(draw(DISTANCE))]
    if command == "sweep":
        distances = draw(st.lists(DISTANCE, min_size=1, max_size=2))
        argv = ["sweep", "--distances", ",".join(map(repr, distances)),
                "--strategies", ",".join(draw(st.lists(STRATEGY, min_size=1,
                                                       max_size=2)))]
        if draw(st.booleans()):
            argv += ["--iterations", str(draw(st.sampled_from([1, 2, 0])))]
        if draw(st.booleans()):
            argv.append("--plan-only")
    else:
        argv = [command, "--distance", repr(draw(DISTANCE)), "--strategy",
                draw(STRATEGY)]
    if command == "plan" or draw(st.booleans()):
        argv += ["--mf", str(draw(st.sampled_from([1, 10, 1000])))]
    else:
        argv += ["--n", str(draw(st.sampled_from([1, 10, 1000, 20_000])))]
    if command != "plan":
        argv += ["--seed", draw(SEEDS)]
    for option, value in draw(SIZING).items():
        argv += [option, value]
    return argv


@st.composite
def requests(draw):
    # Each section is often left at its defaults, so that many requests
    # get past validation and planning into a run.
    config = {name: draw(st.fixed_dictionaries({}, optional=section))
              for name, section in (("link", LINK_FIELDS),
                                    ("security", SECURITY_FIELDS))
              if draw(st.booleans())}
    command = draw(st.sampled_from(["run", "sweep", "plan", "link-info"]))
    return config, command_line(draw, command)


def call_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def planned_pulses(argv: list[str], config_path: str) -> Optional[int]:
    """The largest N_F that the planned points of run or sweep argv would
    simulate, from `plan` answers; None if no point would be simulated."""
    if argv[0] == "run":
        points = [(argv[argv.index("--distance") + 1],
                   argv[argv.index("--strategy") + 1])]
    else:
        points = [(d, s) for d in argv[argv.index("--distances") + 1].split(",")
                  for s in argv[argv.index("--strategies") + 1].split(",")]
    sizing = [a for o in ("--mf", "--g", "--p-extra") if o in argv
              for a in (o, argv[argv.index(o) + 1])]
    sizes = []
    for d, s in points:
        code, out = call_main(["plan", "--distance", d, "--strategy", s,
                               *sizing, "--config", config_path])
        if code == EXIT_OK:
            sizes.append(json.loads(out)["N_F"])
    return max(sizes, default=None)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(requests())
def test_fuzzed_requests_answer_in_json(request):
    config, drawn = request
    argv = list(drawn)
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        out_csv = os.path.join(tmp, "sweep.csv")
        if argv[0] == "sweep":
            argv += ["--out", out_csv]
        simulates = argv[0] in ("run", "sweep") and "--plan-only" not in argv
        if simulates and "--mf" in argv:
            pulses = planned_pulses(argv, config_path)
            if pulses is not None and pulses > MAX_PLANNED_PULSES:
                # Too large to simulate here: plan the same request.
                if argv[0] == "run":
                    i = argv.index("--seed")
                    argv = ["plan", *argv[1:i], *argv[i + 2:]]
                else:
                    argv.append("--plan-only")
        code, out = call_main([*argv, "--config", config_path])
        assert code in (EXIT_OK, EXIT_ERROR, EXIT_INFEASIBLE), argv
        doc = json.loads(out)
        assert isinstance(doc, dict), argv
        if code == EXIT_OK:
            assert "error" not in doc, argv
            if argv[0] == "sweep":
                assert os.path.isfile(out_csv), argv
        else:
            assert doc["error"] == ("infeasible" if code == EXIT_INFEASIBLE
                                    else "invalid"), argv
            assert doc["message"], argv
            assert not any(bare in doc["message"] for bare in BARE_MESSAGES), (
                argv, config, doc)
