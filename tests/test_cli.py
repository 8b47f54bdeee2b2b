import csv
import json
import math

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

    def test_timings_flag(self, capsys):
        _, out = run_cli(capsys, "run", "--distance", "25", "--n", "20000",
                         "--seed", "2", "--timings")
        assert "t_post" in json.loads(out)
        _, out = run_cli(capsys, "run", "--distance", "25", "--n", "20000",
                         "--seed", "2")
        assert "t_post" not in json.loads(out)

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

    def test_sweep_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--distances", "25", "--mf", "300", "--strategies",
                "count", "--iterations", "2", "--seed", "9")
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        # All columns except wall-clock t_post_mean must be identical.
        wall = SIM_COLUMNS.index("t_post_mean")
        rows_a = [[c for i, c in enumerate(r) if i != wall]
                  for r in csv.reader(a.read_text().splitlines())]
        rows_b = [[c for i, c in enumerate(r) if i != wall]
                  for r in csv.reader(b.read_text().splitlines())]
        assert rows_a == rows_b

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

    def test_plan_only_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "plan.csv"
        code, _ = run_cli(capsys, "sweep", "--distances", "10,30",
                          "--mf", "1000", "--strategies", "fraction,count,sqrt",
                          "--plan-only", "--out", str(out_csv))
        assert code == EXIT_OK
        rows = read_rows(out_csv)
        assert len(rows) == 6
        assert all(int(r["N_F"]) >= 1 for r in rows)
