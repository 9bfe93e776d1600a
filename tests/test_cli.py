import contextlib
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcalc.bitmath import BitMatrix, GF2mField
from symcalc.cli import EXIT_INFEASIBLE, EXIT_INVALID, EXIT_OK, run
from symcalc.codes import (
    MAX_M,
    LinearCode,
    MonomialCode,
    ebch_code,
    load_code,
    monomial_min_distance,
    rm_code,
    save_code,
)
from symcalc.calculus import directional_derivative_code, symmetry_profile

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

    def test_infeasible_at_m16_exits_3(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        code, _, err = invoke(capsys, "construct", "--m", "16", "--t", "1", "--k", "3", "--out", str(out))
        assert code == EXIT_INFEASIBLE == 3
        assert "below=None" in err and "above=32768" in err
        assert not out.exists()

    def test_invalid_params(self, tmp_path, capsys):
        code, _, _ = invoke(capsys, "construct", "--m", "4", "--t", "9", "--k", "8", "--out", str(tmp_path / "x"))
        assert code == EXIT_INVALID

    def test_m_beyond_limit_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        code, _, err = invoke(capsys, "construct", "--m", "17", "--t", "17", "--k", "1", "--out", str(out))
        assert code == EXIT_INVALID
        assert "error: " in err and not out.exists()

    # (6, 4, 28) takes every stage: two tiers, a degree, an anchor and a residual
    ALL_STAGES = ("--m", "6", "--t", "4", "--k", "28")
    ALL_STAGES_FILE = (
        "m=6 type=monomial\n0\n1\n2\n3\n4\n5\n6\n8\n9\na\nc\n10\n11\n12\n14\n18\n"
        "20\n21\n22\n24\n25\n28\n2a\n30\n31\n32\n34\n38\n"
    )

    def test_trace_prints_removal_log(self, tmp_path, capsys):
        out_file = str(tmp_path / "c")
        code, out, _ = invoke(capsys, "construct", *self.ALL_STAGES, "--out", out_file, "--trace")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "stage,l_hat,degree,masks",
            "tier,4,,3f 2f 1f f",
            "tier,3,,3e 3d 3b 37 2e 2d 2b 27 1e 1d 1b 17 e d b 7",
            "degree,2,4,3c 3a 39 36 35 33",
            "anchor,2,3,1c 1a 19 16 15 13",
            "residual,2,3,2c 29 26 23",
        ]

    def test_trace_of_rate_one_code_is_header_only(self, tmp_path, capsys):
        args = ("--m", "3", "--t", "2", "--k", "8", "--out", str(tmp_path / "c"), "--trace")
        code, out, _ = invoke(capsys, "construct", *args)
        assert code == EXIT_OK and out == "stage,l_hat,degree,masks\n"

    def test_code_file_unchanged_by_trace(self, tmp_path, capsys):
        plain, traced = tmp_path / "plain.code", tmp_path / "traced.code"
        code, out, _ = invoke(capsys, "construct", *self.ALL_STAGES, "--out", str(plain))
        assert code == EXIT_OK and out == ""
        invoke(capsys, "construct", *self.ALL_STAGES, "--out", str(traced), "--trace")
        assert plain.read_text() == traced.read_text() == self.ALL_STAGES_FILE


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

    def test_rm_1_16_profiled_symbolically(self, tmp_path, capsys):
        out = tmp_path / "rm.code"
        save_code(rm_code(1, 16), out)
        code, stdout, _ = invoke(capsys, "analyze", "--code", str(out))
        assert code == EXIT_OK
        lines = stdout.strip().splitlines()
        assert lines[1:-1] == [f"{i},1" for i in range(16)]
        assert lines[-1] == "t=16,k_tilde=1"

    @pytest.mark.parametrize(
        "code",
        [
            ebch_code(GF2mField(6), 5),
            LinearCode(BitMatrix.from_array(np.eye(64, dtype=np.uint8))),
            LinearCode(BitMatrix.from_rows([], 64)),
        ],
        ids=["ebch-6-5", "rate-one", "empty"],
    )
    def test_linear_file_matches_generator_path(self, code, tmp_path, capsys):
        # a loaded linear code has no seeded dual; one with 2k > n is profiled
        # through the dual that kernel_basis computes
        out = tmp_path / "lin.code"
        save_code(code, out)
        exit_code, stdout, _ = invoke(capsys, "analyze", "--code", str(out))
        assert exit_code == EXIT_OK
        loaded = load_code(out)
        ref = [directional_derivative_code(loaded, 1 << i).k for i in range(6)]
        lines = stdout.strip().splitlines()
        assert lines[1:-1] == [f"{i},{d}" for i, d in enumerate(ref)]
        assert lines[-1] == f"t={ref.count(min(ref))},k_tilde={min(ref)}"

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
            "m=\u0663 type=monomial",  # Arabic-Indic three
            "m=+3 type=monomial",
            "m=0x3 type=monomial",
        ],
    )
    def test_malformed_header_exits_2(self, tmp_path, capsys, header):
        path = tmp_path / "bad.code"
        path.write_text(f"{header}\n1\n")
        code, _, err = invoke(capsys, "analyze", "--code", str(path))
        assert code == EXIT_INVALID
        assert err.startswith("error: ")

    @pytest.mark.parametrize("kind", ["monomial", "linear"])
    @pytest.mark.parametrize("row", ["\u0663", "0x3", "0X3", "1_2", "+3", " 3", "3F"])
    def test_non_ascii_hex_row_exits_2(self, tmp_path, capsys, kind, row):
        path = tmp_path / "bad.code"
        path.write_text(f"m=3 type={kind}\n1\n{row}\n2\n")
        code, stdout, err = invoke(capsys, "analyze", "--code", str(path))
        assert code == EXIT_INVALID
        assert err.startswith("error: ") and not stdout

    def test_linear_row_beyond_length_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.code"
        path.write_text("m=2 type=linear\n1f\n")
        code, _, _ = invoke(capsys, "analyze", "--code", str(path))
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("argv", [("simulate", "--channel", "bec:0.3"), ("perms", "--P", "2")])
    def test_linear_file_to_decoding_command_exits_2(self, tmp_path, capsys, argv):
        path = tmp_path / "ebch.code"
        save_code(ebch_code(GF2mField(4), 5), path)
        code, stdout, err = invoke(capsys, argv[0], "--code", str(path), *argv[1:])
        assert code == EXIT_INVALID
        assert err.startswith("error: LinearCode is not a monomial code") and not stdout


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

    @pytest.mark.parametrize("args", [("--m", "17", "--t", "1"), ("--n", str(1 << 17))])
    def test_m_beyond_limit_exits_2(self, capsys, args):
        code, stdout, err = invoke(capsys, "bounds", *args)
        assert code == EXIT_INVALID
        assert "error: " in err and not stdout

    def test_m_bounded_before_k_range(self, capsys, monkeypatch):
        """--m is checked before a k range of size 2^m is built."""
        calls = []
        monkeypatch.setattr("symcalc.bounds.bound_curve", lambda *args: calls.append(args) or [])
        code, _, err = invoke(capsys, "bounds", "--m", "17", "--k-min", "1")
        assert code == EXIT_INVALID
        assert "error: " in err and not calls

    def test_t_beyond_m_exits_2(self, capsys):
        code, stdout, err = invoke(capsys, "bounds", "--m", "4", "--t", "5")
        assert code == EXIT_INVALID
        assert "error: need 1 <= t <= m" in err and not stdout

    def test_k_min_zero_exits_2(self, capsys):
        code, stdout, err = invoke(capsys, "bounds", "--m", "4", "--k-min", "0")
        assert code == EXIT_INVALID
        assert "error: " in err and not stdout


class TestFrozenCommand:
    def test_bec_frozen_writes_polar_code(self, tmp_path, capsys, caplog):
        out = tmp_path / "p.code"
        with caplog.at_level("INFO", logger="symcalc"):
            code, _, _ = invoke(capsys, "frozen", "--m", "3", "--k", "4", "--bec", "0.5", "--out", str(out))
        assert code == EXIT_OK
        loaded = load_code(out)
        assert loaded.gen_set == frozenset({0, 1, 2, 4}) == rm_code(1, 3).gen_set
        assert any("frozen set: [3, 5, 6, 7]" in rec.message for rec in caplog.records)

    def test_awgn_frozen_keeps_distance(self, tmp_path, capsys):
        out = tmp_path / "p.code"
        code, _, _ = invoke(capsys, "frozen", "--m", "8", "--k", "128", "--awgn", "2.0", "--out", str(out))
        assert code == EXIT_OK
        loaded = load_code(out)
        assert loaded.k == 128 and monomial_min_distance(loaded) >= 8

    @pytest.mark.parametrize("channel", [("--bec", "0.5"), ("--awgn", "2")])
    def test_m_zero_exits_2(self, tmp_path, capsys, channel):
        # load_code rejects m = 0, so frozen must not write such a file
        out = tmp_path / "p"
        code, _, err = invoke(capsys, "frozen", "--m", "0", "--k", "1", *channel, "--out", str(out))
        assert code == EXIT_INVALID
        assert "error: m=0 is outside 1.." in err and not out.exists()

    def test_requires_exactly_one_channel(self, tmp_path, capsys):
        code, _, _ = invoke(capsys, "frozen", "--m", "3", "--k", "4", "--out", str(tmp_path / "p"))
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("channel", [("--bec", "0.5"), ("--awgn", "2")])
    def test_m_beyond_limit_exits_2(self, tmp_path, capsys, channel):
        out = tmp_path / "p"
        code, _, err = invoke(capsys, "frozen", "--m", "17", "--k", "5", *channel, "--out", str(out))
        assert code == EXIT_INVALID
        assert "error: " in err and not out.exists()


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

    def test_monte_carlo_flag_removed(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "4", "--t", "3", "--k", "8", "--out", str(out))
        code, _, err = invoke(capsys, "perms", "--code", str(out), "--P", "1", "--mc-frames", "1")
        assert code == EXIT_INVALID
        assert "unrecognized arguments: --mc-frames" in err

    def test_channel_grid_exits_2(self, tmp_path, capsys):
        # perms ranks at one operating point; a grid must not drop its tail
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "4", "--t", "3", "--k", "8", "--out", str(out))
        code, stdout, err = invoke(capsys, "perms", "--code", str(out), "--P", "1", "--channel", "awgn:-5,2.0")
        assert code == EXIT_INVALID
        assert "error: perms ranks at one channel point, not 2" in err and not stdout


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

    def test_non_integer_seed_env_exits_2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "3", "--t", "2", "--k", "4", "--out", str(out))
        monkeypatch.setenv("SYMCALC_SEED", "abc")
        code, stdout, err = invoke(capsys, "simulate", "--code", str(out), "--channel", "bec:0.3")
        assert code == EXIT_INVALID
        assert "error: SYMCALC_SEED='abc' is not an integer" in err and not stdout

    def test_negative_seed_runs_without_warning(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "3", "--t", "2", "--k", "4", "--out", str(out))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = invoke(
                capsys, "simulate", "--code", str(out), "--channel", "awgn:1.0",
                "--max-frames", "64", "--seed", "-5",
            )
        assert code == EXIT_OK

    def test_oversized_batch_exits_2(self, tmp_path, capsys):
        """A list whose single frame is over the LLR limit: 2^17 paths of n = 256."""
        out = tmp_path / "c.code"
        save_code(MonomialCode(8, frozenset(range(128))), out)
        code, stdout, err = invoke(
            capsys, "simulate", "--code", str(out), "--channel", "awgn:2.0", "--decoder", "scl",
            "--L", "131072", "--max-frames", "1000000",
        )
        assert code == EXIT_INVALID and not stdout
        assert err.startswith("error: 1 frame(s) x n=256 x 131072 paths") and err.count("\n") == 1

    def test_bad_channel_spec(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "3", "--t", "2", "--k", "4", "--out", str(out))
        code, _, _ = invoke(capsys, "simulate", "--code", str(out), "--channel", "laplace:1")
        assert code == EXIT_INVALID

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "3", "--t", "2", "--k", "4", "--out", str(out))
        for flag in ("--frobnicate", "--workers"):
            code, _, err = invoke(
                capsys, "simulate", "--code", str(out), "--channel", "bec:0.3",
                "--max-frames", "64", flag, "1",
            )
            assert code == EXIT_INVALID
            assert f"unrecognized arguments: {flag}" in err

    def test_all_zero_flag_removed(self, tmp_path, capsys):
        """Sending only the all-zero word reads a false FER of 0 on the BEC,
        where zero-LLR decisions and ties both fall to the all-zero word."""
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "4", "--t", "3", "--k", "8", "--out", str(out))
        code, stdout, err = invoke(
            capsys, "simulate", "--code", str(out), "--channel", "bec:0.5", "--max-frames", "64", "--all-zero",
        )
        assert code == EXIT_INVALID and not stdout
        assert "unrecognized arguments: --all-zero" in err

    def test_batch_flag_removed(self, tmp_path, capsys):
        """The frames per batch follow from the LLR limit; no flag sets them."""
        out = tmp_path / "c.code"
        invoke(capsys, "construct", "--m", "4", "--t", "3", "--k", "8", "--out", str(out))
        code, stdout, err = invoke(
            capsys, "simulate", "--code", str(out), "--channel", "bec:0.5", "--max-frames", "64", "--batch", "16",
        )
        assert code == EXIT_INVALID and not stdout
        assert "unrecognized arguments: --batch 16" in err


# spellings that Python's int() reads as a number but the file format rejects
INT_SPELLINGS = ["\u0663", "0x3", "0X3", "1_2", "+3", " 3"]


@st.composite
def malformed_code_files(draw):
    """A code file text with at least one defect: a missing header key, a
    non-integer or out-of-range m, a row that is not hex, or a row wider than
    the code length (a mask of 2^m or more for a monomial code)."""
    m = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["monomial", "linear"]))
    fields = {"m": str(m), "type": kind}
    rows = [format(v, "x") for v in draw(st.lists(st.integers(0, (1 << min(m, 6)) - 1), max_size=4))]
    defect = draw(st.sampled_from(["no_m", "no_type", "m_not_int", "m_out_of_range", "bad_hex", "wide_row"]))
    if defect in ("no_m", "no_type"):
        del fields[defect[3:]]
    elif defect == "m_not_int":
        fields["m"] = draw(
            st.text("0123456789abx.+-_=", max_size=6).filter(lambda v: not re.fullmatch("[0-9]+", v))
            | st.sampled_from(INT_SPELLINGS)
        )
    elif defect == "m_out_of_range":
        fields["m"] = str(draw(st.integers(-3, 0) | st.just(17)))
    elif defect == "bad_hex":
        # trailing blanks on the last row fall to the file's strip
        bad = draw(st.text("0123456789abcdefABFgxXz.+-_ ", min_size=1, max_size=6).filter(
            lambda r: r.strip() and not re.fullmatch("[0-9a-f]+", r.rstrip())) | st.sampled_from(INT_SPELLINGS))
        rows.insert(draw(st.integers(0, len(rows))), bad)
    else:
        m = draw(st.integers(1, 8))
        fields["m"] = str(m)
        limit = 1 << (1 << m) if kind == "linear" else 1 << m
        wide = draw(st.integers(limit, limit + 64) | st.just(-1))
        rows.insert(draw(st.integers(0, len(rows))), format(wide, "x"))
    tokens = [f"{key}={value}" for key, value in fields.items()]
    tokens += draw(st.lists(st.sampled_from(["n=16", "k=8", "comment=x", "flag"]), max_size=2))
    header = " ".join(draw(st.permutations(tokens)))
    return "\n".join([header, *rows]) + "\n"


@settings(max_examples=200, deadline=None)
@given(malformed_code_files())
def test_malformed_code_file_exits_2(text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.code"
        path.write_text(text)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["analyze", "--code", str(path)])
    assert code == EXIT_INVALID
    assert err.getvalue().startswith("error: ")


# ---------------------------------------------------------------------------
# Malformed flag values: each is rejected before any work (no code is built,
# no frame is drawn), and m stays below 20 so that nothing of size 2^m is
# large even where a check is missing.

NON_INTEGERS = ["x", "", "1.5", "1e3", "nan", "--"]
BAD_CHANNELS = [
    "bec:-0.1", "bec:1.5", "bec:nan", "bec:inf", "awgn:nan", "awgn:inf", "awgn:-inf",
    "awgn:1e308", "awgn:", "awgn:x", "awgn:1,,2", "laplace:1", "bec",
]

positive = st.integers(1, 4)
not_positive = st.integers(-(2**40), 0)
beyond_m = st.integers(MAX_M + 1, 19)


def _int_flag(bad: st.SearchStrategy) -> st.SearchStrategy:
    return bad.map(str) | st.sampled_from(NON_INTEGERS)


# subcommand -> (valid flags, {flag: strategy of rejected values})
MALFORMED_FLAGS = {
    "construct": (
        {"--m": "4", "--t": "3", "--k": "8"},
        {
            "--m": _int_flag(not_positive | beyond_m),
            "--t": _int_flag(not_positive | st.integers(5, 2**40)),
            "--k": _int_flag(not_positive | st.integers(17, 2**40)),
            "--rm-order": _int_flag(st.integers(-(2**40), -1) | st.integers(5, 2**40)),
        },
    ),
    "bounds": (
        {"--m": "4", "--t": "2"},
        {
            "--m": _int_flag(st.integers(-(2**40), -1) | beyond_m),
            "--n": _int_flag(not_positive | st.sampled_from([3, 100, 1 << 17, 1 << 19])),
            "--t": _int_flag(not_positive | st.integers(5, 2**40)),
            "--k-min": _int_flag(not_positive | st.integers(17, 2**40)),
            "--k-max": _int_flag(not_positive | st.integers(17, 2**40)),
        },
    ),
    "frozen": (
        {"--m": "3", "--k": "4", "--bec": "0.5"},
        {
            "--m": _int_flag(not_positive | beyond_m),
            "--k": _int_flag(not_positive | st.integers(9, 2**40)),
            "--bec": st.sampled_from(["-0.1", "1.5", "nan", "inf", "x"]),
            "--awgn": st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "x"]),
        },
    ),
    "perms": (
        {"--P": "2"},
        {
            "--P": _int_flag(not_positive),
            "--channel": st.sampled_from(BAD_CHANNELS),
            "--mc-frames": positive.map(str),
        },
    ),
    "simulate": (
        {"--channel": "bec:0.3", "--max-frames": "8"},
        {
            "--L": _int_flag(not_positive),
            "--P": _int_flag(not_positive),
            "--max-errors": _int_flag(not_positive),
            "--max-frames": _int_flag(not_positive),
            "--batch": positive.map(str),
            "--channel": st.sampled_from(BAD_CHANNELS),
            "--decoder": st.sampled_from(["", "SC", "list", "bp"]),
        },
    ),
}


@st.composite
def malformed_invocations(draw):
    """A subcommand with valid flags, one of which is replaced by (or joined
    with) a value rejected before any work."""
    command = draw(st.sampled_from(sorted(MALFORMED_FLAGS)))
    valid, bad = MALFORMED_FLAGS[command]
    flag = draw(st.sampled_from(sorted(bad)))
    flags = dict(valid)
    if command == "frozen" and flag == "--awgn":
        del flags["--bec"]
    flags[flag] = draw(bad[flag])
    return command, flags


@pytest.fixture(scope="module")
def worked_code_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "worked.code"
    save_code(MonomialCode(4, frozenset(WORKED)), path)
    return path


@settings(max_examples=300, deadline=None)
@given(malformed_invocations())
def test_malformed_arguments_exit_2(worked_code_file, invocation):
    command, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.code"
        argv = [command]
        if command in ("perms", "simulate"):
            argv += ["--code", str(worked_code_file)]
        if command in ("construct", "frozen"):
            argv += ["--out", str(out)]
        for flag, value in flags.items():
            argv += [flag, value]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = run(argv)
        assert not out.exists()
    assert code == EXIT_INVALID, argv
    text = err.getvalue()
    assert "Traceback" not in text
    assert text.startswith("error: ") or "usage: symcalc" in text, argv
    assert not stdout.getvalue()
