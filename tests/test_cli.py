import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

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
        assert f"N = {2 ** 63 - 1} pulses give n_det = " in doc["message"]
        assert doc["message"].endswith("detections, more than fit in memory")

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
        ("ca9ec29d0e899bd7", 64016, 1280, None),
        (285, 1.0469952130029567, True)),
    ("--mf", "1000", "5", "count"): (
        ("0989479b18cea387", 54934, 1101, None),
        (171, 1.219685777892257, True)),
    ("--mf", "1000", "5", "sqrt"): (
        ("d6e625a8ca30f474", 54253, 1080, None),
        (142, 0.7295384535939694, True)),
    ("--mf", "1000", "30", "fraction"): (
        ("a43f8ff92d91b40d", 201052, 1281, None),
        (300, 1.0578226499574324, True)),
    ("--mf", "1000", "30", "count"): (
        ("8ce9c7e029a8ea40", 172698, 1107, None),
        (174, 1.0998218608856931, True)),
    ("--mf", "1000", "30", "sqrt"): (
        ("aeb43002e9b47d16", 170524, 1082, None),
        (197, 1.2737247145180963, True)),
    ("--mf", "1000", "65", "fraction"): (
        ("adc339810dcf91bf", 1571881, 1050, None),
        (1203, 1.3282968146114753, True)),
    ("--mf", "1000", "65", "count"): (
        ("4c7b31fca072a992", 1412280, 1071, None),
        (1160, 1.0450964926555806, True)),
    ("--mf", "1000", "65", "sqrt"): (
        ("51100745a5a919d9", 1404440, 1062, None),
        (1090, 1.1065799465811872, True)),
    ("--n", "200000", "5", "fraction"): (
        ("0f22a6c3bc9ce5bf", 200000, 6057, None),
        (88, 0.6120507097119239, True)),
    ("--n", "200000", "5", "count"): (
        ("5c230eb4bacb147e", 200000, 4524, None),
        (100, 2.143068443326986, True)),
    ("--n", "200000", "5", "sqrt"): (
        ("75372beae3915092", 200000, 4524, None),
        (100, 2.143068443326986, True)),
    ("--n", "200000", "30", "fraction"): (
        ("a7942ed0e67a7166", 200000, 1534, None),
        (211, 1.5688696439040157, True)),
    ("--n", "200000", "30", "count"): (
        ("88bf87d6e777100b", 200000, 1427, None),
        (176, 1.0426775964428632, True)),
    ("--n", "200000", "30", "sqrt"): (
        ("d6671cfa810b9616", 200000, 1430, None),
        (208, 2.044426885445771, True)),
    ("--n", "200000", "65", "fraction"): (
        ("20c94b245fb3156d", 200000, 89, None),
        (189, 1.0881710810927219, True)),
    ("--n", "200000", "65", "count"): (
        ("74ab914d6462d28f", 200000, 55, None),
        (176, 1.9814280278313612, True)),
    ("--n", "200000", "65", "sqrt"): (
        ("3f7c991503097640", 200000, 55, None),
        (176, 1.9814280278313612, True)),
}

# sweep --distances 5,30,65 <mode> --strategies fraction,count,sqrt
# --iterations 2 --seed 7: (digest of the CSV, (N, status) per row).
FROZEN_SWEEPS = {
    ("--mf", "1000"): ("34c37ab85c08b106", [
        ("64016", "ok"), ("54934", "ok"), ("54253", "ok"),
        ("201052", "ok"), ("172698", "ok"), ("170524", "ok"),
        ("1571881", "ok"), ("1412280", "ok"), ("1404440", "ok")]),
    ("--n", "200000"): ("7d22fe07faaad2bc", [
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
