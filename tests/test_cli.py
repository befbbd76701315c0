import json

import pytest

from cyclineq.cli import main
from cyclineq.selftest import run_selftest


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestClassify:
    def test_shift_shorthand(self, capsys):
        doc = run_json(capsys, "classify", "--n", "6", "--sigma", "shift:2")
        assert doc["d_plus"] == 2 and doc["d_minus"] == 4
        assert doc["sigma"] == [3, 4, 5, 6, 1, 2]
        assert doc["holds_for"] == "k >= 2 or k <= -4"

    def test_with_exponent(self, capsys):
        doc = run_json(capsys, "classify", "--n", "6", "--sigma", "shift:2", "--k", "1")
        assert doc["holds"] is False
        assert doc["violating_indices"] == [[i, 2] for i in range(1, 7)]

    def test_json_sigma(self, capsys):
        doc = run_json(capsys, "classify", "--sigma", "[2,1,3,4]")
        assert doc["d_plus"] == 3 and doc["d_minus"] == 3

    def test_bad_sigma_is_domain_error(self, capsys):
        code, _, err = run(capsys, "classify", "--sigma", "[1,1,2]")
        assert code == 1 and "error" in err


class TestWitness:
    def test_build_check_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        doc = run_json(capsys, "witness", "--n", "3", "--sigma", "[2,3,1]",
                       "--k", "1/1", "--out", str(path))
        assert doc["summands"] == [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
        code, out, _ = run(capsys, "witness", "--n", "3", "--sigma", "[2,3,1]",
                           "--check-only", str(path))
        assert code == 0
        assert json.loads(out) == {"valid": True, "diagnosis": None}

    def test_check_only_detects_corruption(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        doc = run_json(capsys, "witness", "--n", "3", "--sigma", "[2,3,1]",
                       "--k", "2/1", "--out", str(path))
        doc["summands"][0][0] += 1
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "witness", "--n", "3", "--sigma", "[2,3,1]",
                           "--check-only", str(path))
        assert code == 1
        assert json.loads(out) == {"valid": False, "diagnosis": "BadColumnSum"}

    def test_decimal_exponent_rejected(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "3", "--sigma", "[2,3,1]",
                           "--k", "0.5")
        assert code == 1 and "u/v" in err

    def test_inadmissible_rejected(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "4", "--sigma", "shift:2",
                           "--k", "1/1")
        assert code == 1 and "admissible" in err


class TestRefute:
    def test_nesbitt(self, capsys):
        doc = run_json(capsys, "refute", "--ineq", "nesbitt")
        assert doc["x"] == [1.0, 0.1, 0.1]
        assert abs(doc["gap"] + 0.0508931471) < 1e-9

    def test_main(self, capsys):
        doc = run_json(capsys, "refute", "--ineq", "main", "--n", "4",
                       "--sigma", "shift:2", "--k", "1")
        assert doc["gap"] < -1e-9

    def test_shapiro(self, capsys):
        doc = run_json(capsys, "refute", "--ineq", "shapiro", "--n", "4",
                       "--sigma", "[1,2,3,4]", "--k", "1.5")
        assert doc["x"] == [1.0, 1.0, 1.0, 1.0]

    def test_not_refutable_is_domain_error(self, capsys):
        code, _, err = run(capsys, "refute", "--ineq", "main", "--n", "3",
                           "--sigma", "[1,2,3]", "--k", "1")
        assert code == 1 and "holds" in err


SEARCH = ["search", "--ineq", "nesbitt", "--n", "3"]
SWEEP = ["shapiro", "--n", "3", "--k-steps", "2"]
AT_LEAST_ONE = "restarts, max_iters, grid_points_per_dim must be >= 1"


class TestSearch:
    def test_byte_identical_reruns(self, capsys):
        args = ("search", "--ineq", "main", "--sigma", "[2,1,4,3]", "--k", "1.5",
                "--restarts", "8", "--seed", "11")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_emit_plot_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*SEARCH, "--emit-plot", "plot.csv"])
        assert exc.value.code == 2

    def test_grid_mode(self, capsys):
        doc = run_json(capsys, "search", "--ineq", "main", "--sigma", "shift:2",
                       "--n", "4", "--k", "1", "--grid")
        assert doc["mode"] == "grid" and doc["gap"] < 0

    def test_shift_kind(self, capsys):
        doc = run_json(capsys, "search", "--ineq", "shift", "--n", "5", "--p", "2",
                       "--k", "1", "--restarts", "6")
        assert doc["gap"] >= -1e-9

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        run_json(capsys, "search", "--ineq", "nesbitt", "--n", "3",
                 "--restarts", "3", "--max-iters", "10", "--trace", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "restart,iteration,gap,step"
        assert len(lines) > 3

    def test_missing_sigma_is_domain_error(self, capsys):
        code, _, err = run(capsys, "search", "--ineq", "main", "--k", "1")
        assert code == 1 and "--sigma" in err

    @pytest.mark.parametrize("argv, message", [
        ([*SEARCH, "--restarts", "0"], AT_LEAST_ONE),
        ([*SEARCH, "--max-iters", "0"], AT_LEAST_ONE),
        ([*SEARCH, "--grid-points", "0"], AT_LEAST_ONE),
        ([*SEARCH, "--seed", "-1"], "seed must be a nonnegative integer"),
        ([*SWEEP, "--restarts", "0"], AT_LEAST_ONE),
        ([*SWEEP, "--max-iters", "0"], AT_LEAST_ONE),
        ([*SWEEP, "--seed", "-1"], "seed must be a nonnegative integer"),
    ])
    def test_bad_budget_is_one_line_domain_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


class TestCount:
    def test_count_with_oracle(self, capsys):
        doc = run_json(capsys, "count", "--n", "5", "--k", "2", "--oracle")
        assert doc == {"n": 5, "k": 2, "count": 13, "oracle_count": 13, "match": True}

    def test_lucas_table_json(self, capsys):
        doc = run_json(capsys, "count", "--lucas-table", "6")
        assert [row["n"] for row in doc["rows"]] == [2, 3, 4, 5, 6]
        assert [row["match"] for row in doc["rows"]] == [False, True, True, True, True]

    def test_lucas_table_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--lucas-table", "5", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,count,lucas_plus_two,match"
        assert lines[1] == "2,2,5,False"
        assert len(lines) == 5

    def test_missing_args_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--n", "5", "--k", "-1"], "error: need k >= 0, got k=-1"),
        (["--lucas-table", "1"], "error: the Lucas table needs n_max > 1, got n_max=1"),
        (["--lucas-table", "-4"], "error: the Lucas table needs n_max > 1, got n_max=-4"),
        (["--n", "1", "--k", "0"], "error: need n > 1, got n=1"),
        (["--n", "10", "--k", "2", "--oracle"], "error: enumeration budget is n <= 9, got n=10"),
        (["--n", "30", "--k", "9"], "error: transfer-matrix budget is k <= 8, got k=9"),
        (["--n", "100000", "--k", "8"],
         "error: budget is 1000 digits, got P(100000,8) <= 9^100000"),
        (["--n", "5000", "--k", "4999"],
         "error: budget is 1000 digits, got P(5000,4999) <= 5000^5000"),
        (["--lucas-table", "21000"],
         "error: budget is 1000 digits, got P(21000,2) <= 3^21000"),
    ])
    def test_bad_input_is_one_line_domain_error(self, capsys, argv, message):
        code, out, err = run(capsys, "count", *argv)
        assert code == 1 and out == ""
        assert err == message + "\n"


class TestShapiroSweep:
    def test_sweep(self, capsys, tmp_path):
        path = tmp_path / "plot.csv"
        doc = run_json(capsys, "shapiro", "--n", "3", "--k-steps", "3",
                       "--restarts", "4", "--emit-plot", str(path))
        assert len(doc["sweep"]) == 3
        assert all(row["gap"] >= -1e-9 for row in doc["sweep"])
        lines = path.read_text().splitlines()
        assert lines[0] == "k,gap" and len(lines) == 4


class TestUsageErrors:
    def test_unknown_ineq(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["refute", "--ineq", "bogus"])
        assert exc.value.code == 2

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSelftest:
    def test_inject_fault_fails_witness_row(self, capsys):
        code, out, _ = run(capsys, "selftest", "--inject-fault", "witness", "--json")
        assert code == 1
        doc = json.loads(out)
        by_name = {row["name"]: row["ok"] for row in doc["results"]}
        assert by_name["witness"] is False
        assert doc["ok"] is False

    def test_fault_only_in_witness(self):
        with pytest.raises(ValueError, match="only the witness check"):
            run_selftest(inject_fault="nesbitt")

    def test_full_battery_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 7 and all("PASS" in ln for ln in lines)
