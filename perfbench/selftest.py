"""The benchmark's own tests: every output check fails on a wrong input.

    python3 perfbench/selftest.py

Each test feeds a check a deliberately wrong input (a flipped bit, an
off-by-one k_tilde, a miscounted error, ...) and asserts that the check
fails, after asserting that it passes on the right input.  The file name
keeps it out of the repository's test collection; it takes a few seconds.
"""

from __future__ import annotations

import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np

import refcheck as R
import workloads as W
from symcalc.bounds import fully_symmetric_lb, partially_symmetric_lb
from symcalc.calculus import symmetry_profile
from symcalc.construct import ConstructionRequest, construct_partially_symmetric
from symcalc.decode import sc_decode_batch
from symcalc.sim import Bec

WORKED = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
M5 = construct_partially_symmetric(ConstructionRequest(m=5, t=3, k=16))


def fails(check, *args) -> bool:
    try:
        check(*args)
    except R.CheckFailed:
        return True
    return False


def flip(bits: np.ndarray, index=(0, 0)) -> np.ndarray:
    out = bits.copy()
    out[index] ^= 1
    return out


def as_result(counts: dict, **changes):
    res = SimpleNamespace(
        frames=counts["frames"], errors=counts["errors"], ties=counts["ties"],
        ml_certified=counts["certified"] / counts["frames"], stop_reason="max_frames",
    )
    for key, value in changes.items():
        setattr(res, key, value)
    return res


def test_philox_contract_matches_the_pinned_vector():
    # README: seed 0, frame 0 gives info bits 1,1,1,0,0,1,1,0 and first normal draw -1.7741885208017214
    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    assert rng.integers(0, 2, size=8, dtype=np.uint8).tolist() == [1, 1, 1, 0, 0, 1, 1, 0]
    assert rng.standard_normal(1)[0] == -1.7741885208017214


def test_butterfly_is_self_inverse_and_encodes_monomials():
    u = np.zeros(16, dtype=np.uint8)
    u[0b0011] = 1
    cw = R.butterfly(u)
    assert cw.tolist() == [1 if (x & 0b0011) == 0b0011 else 0 for x in range(16)]
    assert np.array_equal(R.butterfly(cw), u)


def test_count_check_catches_a_miscounted_error():
    sent, llrs = R.regenerate_frames(5, M5.gen_set, ("awgn", 1.0), 4, 0, 64)
    decoded, _, _ = sc_decode_batch(M5, llrs)
    counts = R.score(decoded, sent, llrs)
    assert counts["errors"] > 0
    assert not fails(R.check_counts, "sc", counts, as_result(counts))
    assert fails(R.check_counts, "sc", counts, as_result(counts, errors=counts["errors"] + 1))
    assert fails(R.check_counts, "sc", counts, as_result(counts, ties=counts["ties"] + 1))
    assert fails(R.check_counts, "sc", counts, as_result(counts, frames=counts["frames"] - 1))


def test_support_check_catches_a_flipped_bit():
    _, llrs = R.regenerate_frames(4, WORKED.gen_set, ("awgn", 2.0), 1, 0, 8)
    decoded, _, _ = sc_decode_batch(WORKED, llrs)
    assert not fails(R.check_supported, "sc", 4, WORKED.gen_set, decoded)
    assert fails(R.check_supported, "sc", 4, WORKED.gen_set, flip(decoded, (3, 5)))


def test_scalar_reference_catches_a_flipped_bit_and_a_wrong_tie_count():
    perm = (2, 0, 4, 1, 3)
    _, llrs = R.regenerate_frames(5, M5.gen_set, ("awgn", 1.0), 2, 0, 16)
    decoded, _, ties = sc_decode_batch(M5, llrs, perm)
    assert not fails(R.check_sc_reference, "sc", 5, M5.gen_set, llrs, decoded, ties, perm)
    assert fails(R.check_sc_reference, "sc", 5, M5.gen_set, llrs, flip(decoded, (7, 3)), ties, perm)
    assert fails(R.check_sc_reference, "sc", 5, M5.gen_set, llrs, decoded, ties + 1, perm)
    # the same outputs under another layer order are not what that order decodes
    assert fails(R.check_sc_reference, "sc", 5, M5.gen_set, llrs, decoded, ties, None)


def test_scalar_reference_counts_erasure_ties():
    _, llrs = R.regenerate_frames(4, WORKED.gen_set, ("bec", 0.5), 9, 0, 32)
    decoded, _, ties = sc_decode_batch(WORKED, llrs)
    assert ties.sum() > 0
    assert not fails(R.check_sc_reference, "sc", 4, WORKED.gen_set, llrs, decoded, ties)


def test_dominance_check_catches_a_worse_choice():
    sent, llrs = R.regenerate_frames(5, M5.gen_set, ("awgn", 1.0), 3, 0, 32)
    first, _, _ = sc_decode_batch(M5, llrs, (0, 1, 2, 3, 4))
    other, _, _ = sc_decode_batch(M5, llrs, (4, 3, 2, 1, 0))
    best = R.pick_best(np.stack([first, other], axis=1), llrs)
    assert not fails(R.check_dominates, "perm", best, first, llrs)
    agree = np.flatnonzero((1.0 - 2.0 * first[0]) * llrs[0] > 0)
    worse = flip(first, (0, agree[0]))  # a bit that agreed with the channel now disagrees
    assert R.correlation(worse, llrs)[0] < R.correlation(first, llrs)[0]
    assert fails(R.check_dominates, "perm", worse, first, llrs)


def test_erasure_recovery_check_catches_a_wrong_recoverable_frame():
    gen = R.generator_rows(4, WORKED.gen_set)
    sent, llrs = R.regenerate_frames(4, WORKED.gen_set, ("bec", 0.3), 5, 0, 64)
    assert not fails(R.check_erasure_recovery, "ml", gen, llrs, sent, sent.copy())
    full = [i for i in range(64) if R.gf2_rank(gen[:, llrs[i] != 0]) == 8]
    assert full
    assert fails(R.check_erasure_recovery, "ml", gen, llrs, sent, flip(sent, (full[0], 0)))


def test_gf2_rank_against_known_matrices():
    assert R.gf2_rank(np.eye(5, dtype=np.uint8)) == 5
    assert R.gf2_rank(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)) == 2
    assert R.gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0


def test_grid_check_catches_an_off_by_one_k_tilde_and_wrong_dims():
    m, t, k = 5, 3, 16
    prof = symmetry_profile(M5)
    lb, _ = partially_symmetric_lb(m, t, k)
    assert not fails(R.check_grid_code, m, t, k, M5.gen_set, prof, lb)
    assert fails(R.check_grid_code, m, t, k, M5.gen_set, prof, lb + 1)
    assert fails(R.check_grid_code, m, t, k, M5.gen_set, _with(prof, k_tilde=prof.k_tilde - 1), lb)
    dims = list(prof.dims)
    dims[0] += 1
    assert fails(R.check_grid_code, m, t, k, M5.gen_set, _with(prof, dims=tuple(dims)), lb)
    assert fails(R.check_grid_code, m, t, k + 1, M5.gen_set, prof, lb)
    assert fails(R.check_grid_code, m, prof.t + 1, k, M5.gen_set, prof, lb)


def test_ebch_check_catches_a_broken_symmetry_and_a_low_k_tilde():
    prof = SimpleNamespace(t=5, k_tilde=8, dims=(8,) * 5)
    full_lb, _ = fully_symmetric_lb(5, 16)
    assert not fails(R.check_ebch_code, 5, 7, 16, prof, full_lb)
    assert fails(R.check_ebch_code, 5, 7, 16, _with(prof, t=4), full_lb)
    assert fails(R.check_ebch_code, 5, 7, 16, _with(prof, k_tilde=full_lb - 1), full_lb)


def test_fer_operation_checks_catch_uncertified_ml_and_untied_errors():
    ops = W.small_bec(1).ops
    ml = next(op for op in ops if op.kind == "ml")
    scl = next(op for op in ops if op.kind == "scl256")
    good = SimpleNamespace(frames=ml.items, errors=3, ties=3, ml_certified=1.0, stop_reason="max_frames")
    assert not fails(ml.check, good)
    assert fails(ml.check, _with(good, ties=2))
    assert fails(ml.check, _with(good, ml_certified=1.0 - 1.0 / ml.items))
    assert fails(scl.check, _with(good, ml_certified=0.5))
    assert fails(ml.check, _with(good, frames=ml.items - 256))
    assert fails(ml.check, _with(good, stop_reason="max_errors"))


def test_rescoring_catches_a_miscounted_simulate_fer_result():
    for op in W.small_bec(2).ops:
        op.spec["frames"] = 256  # one batch keeps the test fast
        res = op.call(0, 256)
        assert W.verify_fer_op(op, res, Bec(0.5), 8)["frames_checked"] == 256
        assert fails(W.verify_fer_op, op, _with(res, errors=res.errors + 1), Bec(0.5), 8)
        assert fails(W.verify_fer_op, op, _with(res, ties=res.ties - 1), Bec(0.5), 8)


def _with(obj, **changes):
    return SimpleNamespace(**{**vars(obj), **changes})


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
