import math
import os

import pytest

from symcalc.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, run
from symcalc.codes import MonomialCode, load_code
from symcalc.calculus import symmetry_profile

WORKED = {0, 1, 2, 4, 8, 9, 10, 12}


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstructCommand:
    def test_worked_example_file(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        code, _, _ = invoke(capsys, "construct", "--m", "4", "--t", "3", "--k", "8", "--out", str(out))
        assert code == EXIT_OK
        loaded = load_code(out)
        assert loaded.gen_set == frozenset(WORKED)

    def test_infeasible_exit_code_and_report(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        code, _, err = invoke(capsys, "construct", "--m", "4", "--t", "3", "--k", "7", "--out", str(out))
        assert code == EXIT_INFEASIBLE
        assert "below=5" in err and "above=8" in err
        assert not out.exists()

    def test_invalid_params(self, tmp_path, capsys):
        code, _, _ = invoke(capsys, "construct", "--m", "4", "--t", "9", "--k", "8", "--out", str(tmp_path / "x"))
        assert code == EXIT_INVALID


class TestAnalyzeCommand:
    def test_round_trip_profile(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "4", "--t", "3", "--k", "8", "--out", str(out))
        code, stdout, _ = invoke(capsys, "analyze", "--code", str(out))
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[0] == "direction,dim"
        assert lines[1:5] == ["0,2", "1,2", "2,2", "3,4"]
        assert lines[-1] == "t=3,k_tilde=2"

    def test_matches_in_memory_profile(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "5", "--t", "2", "--k", "24", "--out", str(out))
        _, stdout, _ = invoke(capsys, "analyze", "--code", str(out))
        prof = symmetry_profile(load_code(out))
        lines = stdout.strip().splitlines()
        dims = [int(line.split(",")[1]) for line in lines[1:-1]]
        assert tuple(dims) == prof.dims
        assert lines[-1] == f"t={prof.t},k_tilde={prof.k_tilde}"

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "analyze", "--code", "/nonexistent.code")
        assert code == EXIT_INVALID

    @pytest.mark.parametrize(
        "header",
        [
            "type=monomial",  # no m
            "m=4",  # no type
            "m=four type=monomial",
            "m=4.5 type=linear",
            "m=0 type=monomial",
            "m=17 type=linear",  # one past the largest supported field
        ],
    )
    def test_malformed_header_exits_2(self, tmp_path, capsys, header):
        path = tmp_path / "bad.code"
        path.write_text(f"{header}\n1\n")
        code, _, err = invoke(capsys, "analyze", "--code", str(path))
        assert code == EXIT_INVALID
        assert err.startswith("error: ")

    def test_linear_row_beyond_length_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.code"
        path.write_text("m=2 type=linear\n1f\n")
        code, _, _ = invoke(capsys, "analyze", "--code", str(path))
        assert code == EXIT_INVALID


class TestBoundsCommand:
    def test_csv_header_and_rm_points(self, capsys):
        code, stdout, _ = invoke(capsys, "bounds", "--n", "512", "--t", "full")
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[0] == "k,rate,deriv_rate,exact"
        table = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
        for order in range(0, 10):
            k = sum(math.comb(9, i) for i in range(order + 1))
            k_tilde = sum(math.comb(8, i) for i in range(order))
            assert float(table[k][2]) == k_tilde / 256
            assert table[k][3] == "1"

    def test_bad_n(self, capsys):
        code, _, _ = invoke(capsys, "bounds", "--n", "100")
        assert code == EXIT_INVALID


class TestFrozenCommand:
    def test_bec_frozen_writes_polar_code(self, tmp_path, capsys, caplog):
        out = tmp_path / "p.code"
        with caplog.at_level("INFO", logger="symcalc"):
            code, _, _ = invoke(capsys, "frozen", "--m", "3", "--k", "4", "--bec", "0.5", "--out", str(out))
        assert code == EXIT_OK
        loaded = load_code(out)
        assert loaded.gen_set == frozenset({3, 5, 6, 7})
        assert any("frozen set" in rec.message for rec in caplog.records)

    def test_requires_exactly_one_channel(self, tmp_path, capsys):
        code, _, _ = invoke(capsys, "frozen", "--m", "3", "--k", "4", "--out", str(tmp_path / "p"))
        assert code == EXIT_INVALID


class TestPermsCommand:
    def test_lists_permutations(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "4", "--t", "3", "--k", "8", "--out", str(out))
        code, stdout, _ = invoke(
            capsys, "perms", "--code", str(out), "--P", "3", "--min-dist", "0",
            "--channel", "awgn:2.0",
        )
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[0] == "perm,score"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert sorted(int(x) for x in first[:4]) == [0, 1, 2, 3]


class TestSimulateCommand:
    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "4", "--t", "3", "--k", "8", "--out", str(out))
        code, stdout, _ = invoke(
            capsys, "simulate", "--code", str(out), "--decoder", "sc",
            "--channel", "awgn:2.0,4.0", "--max-frames", "512", "--max-errors", "1000000",
            "--seed", "5",
        )
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[0].startswith("ebn0_or_eps,decoder,L_or_P,frames,errors,fer,ml_certified")
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[0] == "2" and row[1] == "sc"
        assert int(row[3]) == 512

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "3", "--t", "2", "--k", "4", "--out", str(out))
        monkeypatch.setenv("SYMCALC_SEED", "7")
        code, stdout, _ = invoke(
            capsys, "simulate", "--code", str(out), "--channel", "bec:0.3",
            "--max-frames", "256", "--max-errors", "100000",
        )
        assert code == EXIT_OK
        monkeypatch.setenv("SYMCALC_SEED", "7")
        _, stdout2, _ = invoke(
            capsys, "simulate", "--code", str(out), "--channel", "bec:0.3",
            "--max-frames", "256", "--max-errors", "100000",
        )
        assert stdout == stdout2

    def test_bad_channel_spec(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "3", "--t", "2", "--k", "4", "--out", str(out))
        code, _, _ = invoke(capsys, "simulate", "--code", str(out), "--channel", "laplace:1")
        assert code == EXIT_INVALID

    def test_workers_beyond_cpu_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "3", "--t", "2", "--k", "4", "--out", str(out))
        for workers in (0, (os.cpu_count() or 1) + 1):
            code, _, err = invoke(
                capsys, "simulate", "--code", str(out), "--channel", "bec:0.3",
                "--max-frames", "64", "--workers", str(workers),
            )
            assert code == EXIT_INVALID
            assert "workers" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = invoke(capsys, "simulate", "--frobnicate", "1")
        assert code == EXIT_INVALID
