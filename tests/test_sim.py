import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from symcalc.codes import MonomialCode, encode_batch, monomial_to_linear, rm_code
from symcalc.construct import ConstructionRequest, construct_partially_symmetric
from symcalc.channelconstruct import select_permutations
from symcalc.decode import BATCH_LLR_CELLS, scl_decode_batch
from symcalc.sim import (
    Bec,
    BiAwgn,
    SimConfig,
    SimResult,
    check_working_set,
    draw_frames,
    fer_curve,
    frame_rng,
    noise_sigma,
    simulate_fer,
    transmit,
    wilson_interval,
)

CODE_16_8 = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))


def counts(res: SimResult) -> tuple:
    """What a run reports, less its wall time and interval."""
    return res.frames, res.errors, res.ties, res.ml_certified, res.stop_reason


class TestChannels:
    def test_bec_validation(self):
        with pytest.raises(ValueError):
            Bec(1.5)

    def test_sigma_formula(self):
        assert noise_sigma(2.0, 0.5) == pytest.approx(
            math.sqrt(1.0 / (2 * 0.5 * 10 ** 0.2))
        )

    def test_transmit_bec_extremes(self):
        cw = np.array([0, 1, 1, 0], dtype=np.uint8)
        llr = transmit(Bec(0.0), cw, frame_rng(0, 0))
        assert llr.tolist() == [np.inf, -np.inf, -np.inf, np.inf]
        llr = transmit(Bec(1.0), cw, frame_rng(0, 0))
        assert llr.tolist() == [0, 0, 0, 0]

    def test_transmit_awgn_high_snr_matches_signs(self):
        cw = np.array([0, 1] * 8, dtype=np.uint8)
        llr = transmit(BiAwgn(30.0), cw, frame_rng(1, 0), rate=0.5)
        assert ((llr > 0) == (cw == 0)).all()

    def test_awgn_requires_rate(self):
        with pytest.raises(ValueError):
            transmit(BiAwgn(2.0), np.zeros(4, dtype=np.uint8), frame_rng(0, 0))


class TestFrameRng:
    def test_substreams_differ_per_frame(self):
        a = frame_rng(5, 0).standard_normal(4)
        b = frame_rng(5, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_substreams_reproducible(self):
        a = frame_rng(5, 3).standard_normal(4)
        b = frame_rng(5, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_seeds_beyond_int64_keep_distinct_streams(self):
        # a key list holding a value of 2^63 or more goes through float64
        for a, b in ((2**64 - 5, 2**64 - 6), (2**63, 2**63 + 1024)):
            assert not np.array_equal(frame_rng(a, 0).random(4), frame_rng(b, 0).random(4))

    def test_negative_seed_is_its_residue_mod_2_64(self):
        assert np.array_equal(frame_rng(-5, 3).random(4), frame_rng(2**64 - 5, 3).random(4))

    def test_golden_draws(self):
        # pinned Philox test vectors; a failure means the RNG stream moved
        rng = frame_rng(0, 0)
        bits = rng.integers(0, 2, size=8, dtype=np.uint8)
        noise = rng.standard_normal(2)
        assert bits.tolist() == [1, 1, 1, 0, 0, 1, 1, 0]
        assert noise[0] == pytest.approx(-1.7741885208017214, abs=1e-15)
        assert noise[1] == pytest.approx(1.3265118818830892, abs=1e-15)
        batch_bits, _, _ = draw_frames(MonomialCode(3, frozenset(range(8))), Bec(0.5), 0, 0, 1)
        assert batch_bits[0].tolist() == bits.tolist()


def reference_frames(code, channel, seed, lo, hi):
    """Frames drawn one at a time through frame_rng, integers and transmit."""
    info = np.zeros((hi - lo, code.k), dtype=np.uint8)
    llrs = np.empty((hi - lo, code.n))
    for i, f in enumerate(range(lo, hi)):
        rng = frame_rng(seed, f)
        info[i] = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        llrs[i] = transmit(channel, encode_batch(code, info[i : i + 1])[0], rng, code.k / code.n)
    return info, llrs


@st.composite
def frame_cases(draw, k_mod_8):
    """A random monomial code whose dimension is k_mod_8 modulo 8, a channel,
    a seed (also 2^63 or more, and negative) and a frame range."""
    m = draw(st.integers(3, 7))
    n = 1 << m
    k = 8 * draw(st.integers(0 if k_mod_8 else 1, (n - k_mod_8) // 8)) + k_mod_8
    masks = draw(st.permutations(range(n)))[:k]
    channel = draw(st.one_of(
        st.sampled_from([Bec(0.0), Bec(0.5), Bec(1.0)]),
        st.builds(BiAwgn, st.floats(-10.0, 20.0)),
    ))
    seed = draw(st.one_of(st.integers(0, 2**63 - 1), st.integers(2**63, 2**64 - 1), st.integers(-(2**63), -1)))
    lo = draw(st.integers(0, 2**40))
    hi = lo + draw(st.integers(1, 9))
    return MonomialCode(m, frozenset(masks)), channel, seed, lo, hi


@pytest.mark.parametrize("k_mod_8", range(8))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_draw_frames_matches_per_frame_draws(k_mod_8, data):
    """One re-keyed generator per batch and raw-word info bits give, bit for
    bit, the info bits and LLRs of a fresh per-frame generator."""
    code, channel, seed, lo, hi = data.draw(frame_cases(k_mod_8))
    info, sent, llrs = draw_frames(code, channel, seed, lo, hi)
    ref_info, ref_llrs = reference_frames(code, channel, seed, lo, hi)
    assert info.dtype == np.uint8 and np.array_equal(info, ref_info)
    assert np.array_equal(sent, encode_batch(code, ref_info))
    assert np.array_equal(llrs.view(np.uint64), ref_llrs.view(np.uint64))


@pytest.mark.parametrize(
    "lo,hi", [(-1, 2), (5, 4), (2**64 - 1, 2**64 + 1), (7, 7 + BATCH_LLR_CELLS // 16 + 1)]
)
def test_draw_frames_rejects_bad_frame_range(lo, hi):
    """Ranges outside 0..2^64, and ranges whose frames hold more than
    BATCH_LLR_CELLS LLRs (n = 16), are rejected before any allocation."""
    with pytest.raises(ValueError, match=r"frame range .* (is not within 0\.\.2\^64|over the limit)"):
        draw_frames(CODE_16_8, Bec(0.5), 0, lo, hi)


class TestSimulateFer:
    def test_noiseless_is_error_free(self):
        cfg = SimConfig(max_errors=5, max_frames=300, seed=0)
        res = simulate_fer(CODE_16_8, Bec(0.0), cfg)
        assert res.errors == 0 and res.fer == 0.0
        assert res.stop_reason == "max_frames"

    def test_seed_repeatability(self):
        cfg = SimConfig(max_errors=40, max_frames=1500, seed=9)
        a = simulate_fer(CODE_16_8, BiAwgn(2.0), cfg)
        b = simulate_fer(CODE_16_8, BiAwgn(2.0), cfg)
        assert (a.frames, a.errors, a.ties, a.ml_certified) == (
            b.frames,
            b.errors,
            b.ties,
            b.ml_certified,
        )

    def test_error_stop_at_batch_boundary(self):
        cfg = SimConfig(max_errors=10, max_frames=100_000, seed=1)
        res = simulate_fer(CODE_16_8, BiAwgn(0.0), cfg)
        assert res.stop_reason == "max_errors"
        assert res.errors >= 10 and res.frames % 256 == 0

    def test_batch_size_immaterial_without_early_stop(self, monkeypatch):
        # per-frame substreams: evaluation grouping cannot change any count
        import symcalc.sim as sim_mod

        cfg = SimConfig(max_errors=10**9, max_frames=1000, seed=6)
        monkeypatch.setattr(sim_mod, "FRAME_BATCH", 64)
        a = simulate_fer(CODE_16_8, BiAwgn(1.0), cfg)
        monkeypatch.setattr(sim_mod, "FRAME_BATCH", 250)
        b = simulate_fer(CODE_16_8, BiAwgn(1.0), cfg)
        assert counts(a) == counts(b)

    def test_rate_one_hard_decision_matches_analytic(self):
        # rate-1 code: SC is per-coordinate hard decision, so
        # FER = 1 - (1-p)^n with p = Q(1/sigma)
        code = MonomialCode(4, frozenset(range(16)))
        db = 3.0
        sigma = noise_sigma(db, 1.0)
        p = norm.sf(1.0 / sigma)
        expected = 1 - (1 - p) ** 16
        cfg = SimConfig(max_errors=10**9, max_frames=20_000, seed=17)
        res = simulate_fer(code, BiAwgn(db), cfg)
        sd = math.sqrt(expected * (1 - expected) / res.frames)
        assert abs(res.fer - expected) < 3 * sd

    def test_fer_definition(self):
        cfg = SimConfig(max_errors=25, max_frames=640, seed=2)
        res = simulate_fer(CODE_16_8, BiAwgn(1.0), cfg)
        assert res.fer == res.errors / res.frames
        assert 0 <= res.wilson_lo <= res.fer <= res.wilson_hi <= 1

    def test_ties_counted_as_errors(self):
        # BEC with heavy erasures produces metric ties on decoding failures
        cfg = SimConfig(max_errors=10**9, max_frames=2000, seed=4)
        res = simulate_fer(CODE_16_8, Bec(0.6), cfg)
        assert res.ties <= res.errors
        assert res.ties > 0  # ties do occur and are reported

    def test_scl_beats_sc_with_paired_seeds(self):
        cfg_sc = SimConfig(max_errors=10**9, max_frames=4000, seed=11, decoder="sc")
        cfg_scl = SimConfig(
            max_errors=10**9, max_frames=4000, seed=11, decoder="scl", list_size=32
        )
        fer_sc = simulate_fer(CODE_16_8, BiAwgn(2.0), cfg_sc).fer
        res_scl = simulate_fer(CODE_16_8, BiAwgn(2.0), cfg_scl)
        sd = math.sqrt(max(fer_sc, 1e-9) * (1 - fer_sc) / 4000)
        assert res_scl.fer <= fer_sc * 1.0 + 3 * sd
        assert res_scl.fer <= fer_sc  # same noise, strictly wider search

    def test_ml_certification_with_large_list(self):
        cfg = SimConfig(
            max_errors=10**9, max_frames=2000, seed=13, decoder="scl", list_size=256
        )
        res = simulate_fer(CODE_16_8, BiAwgn(2.0), cfg)
        assert res.ml_certified == 1.0

    def test_ml_beyond_dimension_limit_rejected_before_any_frame(self, monkeypatch):
        import symcalc.sim as sim_mod

        calls = []
        monkeypatch.setattr(sim_mod, "draw_frames", lambda *args: calls.append(args) or draw_frames(*args))
        code = MonomialCode(5, frozenset(range(21)))
        with pytest.raises(ValueError, match="k=21"):
            simulate_fer(code, BiAwgn(2.0), SimConfig(max_frames=64, decoder="ml"))
        with pytest.raises(ValueError, match="k=21"):
            fer_curve(code, [BiAwgn(2.0)], SimConfig(max_frames=64, decoder="ml"))
        with pytest.raises(ValueError, match="k=21"):
            check_working_set(code, SimConfig(decoder="ml"))
        assert calls == []


class TestWorkingSet:
    CODE_256 = MonomialCode(8, frozenset(range(128)))

    @pytest.mark.parametrize(
        "config,match",
        [
            # a single frame over the limit: 2^17 paths or 10^5 orders of n = 256
            (SimConfig(decoder="scl", list_size=2**17), f"over the limit {BATCH_LLR_CELLS}"),
            (SimConfig(decoder="perm", perm_count=10**5), f"over the limit {BATCH_LLR_CELLS}"),
            (SimConfig(decoder="perm", perms=(tuple(range(8)),) * 70_000), f"over the limit {BATCH_LLR_CELLS}"),
            # given layer orders are checked in the same pre-flight
            (SimConfig(decoder="perm", perms=()), "permutation list is empty"),
            (SimConfig(decoder="perm", perms=(tuple(range(8)), (0, 1, 2))), r"not a permutation of range\(8\)"),
            (SimConfig(decoder="perm", perms=((0, 0, 1, 2, 3, 4, 5, 6),)), r"not a permutation of range\(8\)"),
        ],
        ids=["scl", "perm", "perm-given", "perm-empty", "perm-short-order", "perm-repeated-variable"],
    )
    def test_oversized_batch_rejected_before_any_frame(self, monkeypatch, config, match):
        import tracemalloc

        import symcalc.channelconstruct as cc_mod
        import symcalc.sim as sim_mod

        calls = []
        monkeypatch.setattr(sim_mod, "draw_frames", lambda *args: calls.append(args))
        monkeypatch.setattr(cc_mod, "select_permutations", lambda *args, **kw: calls.append(args))
        tracemalloc.start()
        try:
            for run in (simulate_fer, fer_curve):
                channel = BiAwgn(2.0)
                with pytest.raises(ValueError, match=match):
                    run(self.CODE_256, channel if run is simulate_fer else [channel], config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [] and peak < 1 << 20

    @pytest.mark.parametrize(
        "config,layer_perm,match",
        [
            (SimConfig(decoder="sc"), (0, 0, 0, 0, 0, 0, 0, 0), r"not a permutation of range\(8\)"),
            (SimConfig(decoder="scl"), (0, 1, 2), r"not a permutation of range\(8\)"),
            # a layer order the decoder would not read is an error, not ignored
            (SimConfig(decoder="perm", perm_count=2), tuple(range(8)), "perm decoder takes no single layer order"),
            (SimConfig(decoder="ml"), tuple(range(8)), "ml decoder takes no single layer order"),
            (SimConfig(decoder="sc", perms=((0, 0, 0, 0),)), None, "sc decoder takes no permutation list"),
            (SimConfig(decoder="scl", perms=(tuple(range(8)),)), None, "scl decoder takes no permutation list"),
            (SimConfig(decoder="ml", perms=(tuple(range(8)),)), None, "ml decoder takes no permutation list"),
            # a float entry is refused, not truncated to another order
            (SimConfig(decoder="perm", perms=((0.2, 1, 2, 3, 4, 5, 6, 7),)), None, "entry 0.2 is not an integer"),
            (SimConfig(decoder="sc"), (7.0, 6, 5, 4, 3, 2, 1, 0), "entry 7.0 is not an integer"),
        ],
        ids=["sc-repeated-variable", "scl-short-order", "perm-layer-perm", "ml-layer-perm",
             "sc-perms", "scl-perms", "ml-perms", "perm-float-order", "sc-float-order"],
    )
    def test_layer_orders_checked_before_any_frame(self, monkeypatch, config, layer_perm, match):
        import symcalc.channelconstruct as cc_mod
        import symcalc.sim as sim_mod

        calls = []
        monkeypatch.setattr(sim_mod, "draw_frames", lambda *args: calls.append(args))
        monkeypatch.setattr(cc_mod, "select_permutations", lambda *args, **kw: calls.append(args))
        channel = BiAwgn(2.0)
        with pytest.raises(ValueError, match=match):
            simulate_fer(self.CODE_256, channel, config, layer_perm)
        with pytest.raises(ValueError, match=match):
            fer_curve(self.CODE_256, [channel], config, layer_perm)
        assert calls == []

    def test_layer_order_accepted_by_sc_and_scl(self):
        for decoder in ("sc", "scl"):
            check_working_set(self.CODE_256, SimConfig(decoder=decoder), (7, 6, 5, 4, 3, 2, 1, 0))

    def test_float_permutation_list_rejected_numpy_integers_accepted(self):
        code = rm_code(1, 3)
        with pytest.raises(ValueError, match="entry 0.2 is not an integer"):
            check_working_set(code, SimConfig(decoder="perm", perms=((0.2, 1, 2),)))
        typed = SimConfig(decoder="perm", perms=(tuple(np.arange(3)[::-1]), (np.int64(0), 1, 2)), max_frames=300)
        plain = SimConfig(decoder="perm", perms=((2, 1, 0), (0, 1, 2)), max_frames=300)
        assert check_working_set(code, typed) == 256
        assert counts(simulate_fer(code, BiAwgn(1.0), typed)) == counts(simulate_fer(code, BiAwgn(1.0), plain))

    @pytest.mark.parametrize(
        "code,config",
        [
            # criterion 9's largest list, and the benchmark's SCL-256 on the (16,8) code
            (CODE_256, SimConfig(decoder="scl", list_size=128)),
            (CODE_16_8, SimConfig(decoder="scl", list_size=256)),
            (CODE_256, SimConfig(decoder="perm", perm_count=32)),
            # the list never exceeds the 2^k codewords, nor the batch the frame budget
            (CODE_16_8, SimConfig(decoder="scl", list_size=10**9)),
            (CODE_256, SimConfig(decoder="scl", list_size=32, max_frames=100)),
        ],
    )
    def test_used_configurations_pass(self, code, config):
        """Each runs in batches of 256 frames, or of max_frames if fewer: the
        limit leaves their grouping, and so their stopping points, alone."""
        assert check_working_set(code, config) == min(256, config.max_frames)


class TestDerivedBatch:
    """Configs whose 256-frame batch is over BATCH_LLR_CELLS but whose single
    frame fits run in smaller batches with unchanged per-frame results."""

    CODE = rm_code(2, 6)
    ORDER = (5, 3, 1, 0, 2, 4)
    # 1100 orders x n = 64: 2^24 // 70,400 = 238 frames per batch
    COPIES = SimConfig(decoder="perm", perms=(ORDER,) * 1100, max_errors=10**9, max_frames=240, seed=3)
    # asks for 1100 orders, but m = 6 has only 720, all kept at min_dist 1:
    # the batch follows the 720 orders decoded, 256 frames, not 238
    INCOMPLETE = SimConfig(decoder="perm", perm_count=1100, min_dist=1, max_errors=5, max_frames=10**6, seed=2)

    def test_copies_of_one_order_match_sc(self):
        assert check_working_set(self.CODE, self.COPIES) == 238
        perm = simulate_fer(self.CODE, BiAwgn(1.0), self.COPIES)
        sc = simulate_fer(self.CODE, BiAwgn(1.0), replace(self.COPIES, decoder="sc", perms=None), self.ORDER)
        assert perm.errors > 0 and counts(perm) == counts(sc)

    @pytest.mark.parametrize("name", ["COPIES", "INCOMPLETE"])
    def test_fer_curve_groups_like_simulate_fer(self, name):
        config = getattr(self, name)
        channel = BiAwgn(-1.0)
        alone = simulate_fer(self.CODE, channel, config)
        (point,) = fer_curve(self.CODE, [channel], config)
        assert counts(point.result) == counts(alone)
        if name == "INCOMPLETE":
            assert point.size_label == "720" and (alone.frames, alone.stop_reason) == (256, "max_errors")


@pytest.mark.parametrize(
    "call",
    [
        lambda: SimConfig(max_errors=2.5),
        lambda: SimConfig(max_frames=10.5),
        lambda: SimConfig(seed=1.5),
        lambda: SimConfig(decoder="scl", list_size=2.5),
        lambda: SimConfig(decoder="perm", perm_count=2.5),
        lambda: SimConfig(decoder="perm", min_dist=None),
        lambda: scl_decode_batch(CODE_16_8, np.zeros((1, 16)), 2.5),
        lambda: draw_frames(CODE_16_8, BiAwgn(2.0), 1, 0, 2.5),
        lambda: draw_frames(CODE_16_8, BiAwgn(2.0), 1.5, 0, 2),
        lambda: select_permutations(CODE_16_8, 2.5, BiAwgn(2.0)),
        lambda: select_permutations(CODE_16_8, 2, BiAwgn(2.0), min_dist=None),
        lambda: select_permutations(CODE_16_8, 2, BiAwgn(2.0), seed=0.5),
    ],
    ids=["max_errors", "max_frames", "seed", "list_size", "perm_count", "min_dist", "scl-L",
         "draw-hi", "draw-seed", "select-P", "select-min_dist", "select-seed"],
)
def test_non_integer_inputs_rejected(call):
    """A float or None where an integer count or seed belongs raises
    ValueError at once, not a TypeError mid-run or a fractional label;
    numpy integers are integers."""
    with pytest.raises(ValueError, match="is not an integer"):
        call()


def test_numpy_integer_inputs_accepted():
    plain = SimConfig(max_errors=10**9, max_frames=300, seed=6)
    typed = SimConfig(max_errors=np.int64(10**9), max_frames=np.int32(300), seed=np.int64(6))
    assert counts(simulate_fer(CODE_16_8, BiAwgn(1.0), typed)) == counts(simulate_fer(CODE_16_8, BiAwgn(1.0), plain))
    frames = draw_frames(CODE_16_8, BiAwgn(1.0), np.int64(6), np.uint8(2), np.int16(5))
    for got, want in zip(frames, draw_frames(CODE_16_8, BiAwgn(1.0), 6, 2, 5)):
        assert np.array_equal(got, want)
    assert scl_decode_batch(CODE_16_8, frames[2], np.int64(4))[0].shape == (3, 4, 16)


class TestLength256:
    @pytest.fixture(scope="class")
    def code5(self):
        return construct_partially_symmetric(
            ConstructionRequest(m=8, t=5, k=128, rm_order=4)
        )

    def test_more_permutations_never_hurt(self, code5):
        from symcalc.channelconstruct import select_permutations

        sel = select_permutations(code5, 32, BiAwgn(2.0), min_dist=5)
        base = dict(max_errors=10**9, max_frames=4000, seed=12, decoder="perm")
        one = simulate_fer(code5, BiAwgn(2.0), SimConfig(perms=sel.perms[:1], **base))
        many = simulate_fer(code5, BiAwgn(2.0), SimConfig(perms=sel.perms, **base))
        assert many.fer <= one.fer

    def test_sc_fer_monotone_in_snr(self):
        from symcalc.channelconstruct import select_permutations

        code3 = construct_partially_symmetric(
            ConstructionRequest(m=8, t=3, k=127, rm_order=4)
        )
        best = select_permutations(code3, 1, BiAwgn(2.0)).perms[0]
        cfg = SimConfig(max_errors=10**9, max_frames=10_000, seed=14)
        fers = [
            simulate_fer(code3, BiAwgn(db), cfg, layer_perm=best).fer
            for db in (1.0, 2.0, 3.0)
        ]
        for lo, hi in zip(fers[1:], fers[:-1]):
            sd = math.sqrt(max(hi, 1e-9) * (1 - hi) / cfg.max_frames)
            assert lo <= hi + 3 * sd
        assert fers[2] < fers[0]


class TestFerCurve:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fer_curve(CODE_16_8, [], SimConfig())

    def test_monotone_in_snr(self):
        cfg = SimConfig(max_errors=10**9, max_frames=4000, seed=21)
        pts = fer_curve(CODE_16_8, [BiAwgn(db) for db in (0.0, 2.0, 4.0)], cfg)
        fers = [p.result.fer for p in pts]
        assert fers[0] > fers[1] > fers[2]

    def test_labels(self):
        cfg = SimConfig(max_errors=5, max_frames=128, seed=0, decoder="scl", list_size=4)
        pts = fer_curve(CODE_16_8, [BiAwgn(2.0)], cfg)
        assert pts[0].decoder == "scl" and pts[0].size_label == "4"
        # the label counts the given orders, none included, not perm_count
        assert SimConfig(decoder="perm", perms=()).label() == "0"
        assert SimConfig(decoder="perm", perms=((1, 0, 2, 3),)).label() == "1"


class TestWilson:
    def test_zero_frames(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi

    def test_shrinks_with_frames(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)


# (code, channel, decoder, list size or order count, seed) ->
# (frames, errors, ties, ml_certified), computed before the SC-list recursion
# lost its separate frozen-subtree pass and the single-frame decoders shared
# one result builder; any change of decoder output shows here
GOLDEN_ROWS = {
    ('16_8', Bec(eps=0.5), 'sc', 0, 1): (256, 171, 64, 0.58203125),
    ('16_8', Bec(eps=0.5), 'sc', 0, 11): (256, 169, 64, 0.58984375),
    ('16_8', Bec(eps=0.5), 'scl', 8, 1): (256, 89, 87, 0.9921875),
    ('16_8', Bec(eps=0.5), 'scl', 8, 11): (256, 109, 106, 0.98828125),
    ('16_8', Bec(eps=0.5), 'scl', 256, 1): (256, 90, 90, 1.0),
    ('16_8', Bec(eps=0.5), 'scl', 256, 11): (256, 107, 107, 1.0),
    ('16_8', Bec(eps=0.5), 'perm', 4, 1): (256, 103, 103, 1.0),
    ('16_8', Bec(eps=0.5), 'perm', 4, 11): (256, 109, 109, 1.0),
    ('16_8', Bec(eps=0.5), 'ml', 0, 1): (256, 104, 104, 1.0),
    ('16_8', Bec(eps=0.5), 'ml', 0, 11): (256, 109, 109, 1.0),
    ('16_8', BiAwgn(ebn0_db=1.0), 'sc', 0, 1): (256, 100, 0, 0.7421875),
    ('16_8', BiAwgn(ebn0_db=1.0), 'sc', 0, 11): (256, 81, 0, 0.76953125),
    ('16_8', BiAwgn(ebn0_db=1.0), 'scl', 8, 1): (256, 54, 0, 1.0),
    ('16_8', BiAwgn(ebn0_db=1.0), 'scl', 8, 11): (256, 43, 0, 1.0),
    ('16_8', BiAwgn(ebn0_db=1.0), 'scl', 256, 1): (256, 54, 0, 1.0),
    ('16_8', BiAwgn(ebn0_db=1.0), 'scl', 256, 11): (256, 43, 0, 1.0),
    ('16_8', BiAwgn(ebn0_db=1.0), 'perm', 4, 1): (256, 56, 0, 0.9921875),
    ('16_8', BiAwgn(ebn0_db=1.0), 'perm', 4, 11): (256, 43, 0, 1.0),
    ('16_8', BiAwgn(ebn0_db=1.0), 'ml', 0, 1): (256, 54, 0, 1.0),
    ('16_8', BiAwgn(ebn0_db=1.0), 'ml', 0, 11): (256, 43, 0, 1.0),
    ('m6', Bec(eps=0.5), 'sc', 0, 1): (256, 159, 1, 0.3828125),
    ('m6', Bec(eps=0.5), 'sc', 0, 11): (256, 171, 0, 0.33203125),
    ('m6', Bec(eps=0.5), 'scl', 8, 1): (256, 6, 3, 0.98828125),
    ('m6', Bec(eps=0.5), 'scl', 8, 11): (256, 12, 4, 0.96875),
    ('m6', Bec(eps=0.5), 'scl', 256, 1): (256, 3, 3, 1.0),
    ('m6', Bec(eps=0.5), 'scl', 256, 11): (256, 4, 4, 1.0),
    ('m6', Bec(eps=0.5), 'perm', 4, 1): (256, 4, 4, 1.0),
    ('m6', Bec(eps=0.5), 'perm', 4, 11): (256, 2, 2, 1.0),
    ('m6', Bec(eps=0.5), 'ml', 0, 1): (256, 4, 4, 1.0),
    ('m6', Bec(eps=0.5), 'ml', 0, 11): (256, 3, 3, 1.0),
    ('m6', BiAwgn(ebn0_db=1.0), 'sc', 0, 1): (256, 212, 0, 0.2265625),
    ('m6', BiAwgn(ebn0_db=1.0), 'sc', 0, 11): (256, 196, 0, 0.28125),
    ('m6', BiAwgn(ebn0_db=1.0), 'scl', 8, 1): (256, 98, 0, 0.76171875),
    ('m6', BiAwgn(ebn0_db=1.0), 'scl', 8, 11): (256, 87, 0, 0.7890625),
    ('m6', BiAwgn(ebn0_db=1.0), 'scl', 256, 1): (256, 50, 0, 1.0),
    ('m6', BiAwgn(ebn0_db=1.0), 'scl', 256, 11): (256, 53, 0, 1.0),
    ('m6', BiAwgn(ebn0_db=1.0), 'perm', 4, 1): (256, 51, 0, 0.99609375),
    ('m6', BiAwgn(ebn0_db=1.0), 'perm', 4, 11): (256, 54, 0, 0.98828125),
    ('m6', BiAwgn(ebn0_db=1.0), 'ml', 0, 1): (256, 50, 0, 1.0),
    ('m6', BiAwgn(ebn0_db=1.0), 'ml', 0, 11): (256, 53, 0, 1.0),
}
GOLDEN_CODES = {
    "16_8": CODE_16_8,
    "m6": construct_partially_symmetric(ConstructionRequest(m=6, t=3, k=14)),
}


@pytest.mark.parametrize("key", sorted(GOLDEN_ROWS, key=repr), ids=repr)
def test_simulate_fer_golden_rows(key):
    code, channel, decoder, size, seed = key
    kw = {"scl": {"list_size": size}, "perm": {"perm_count": size, "min_dist": 2}}.get(decoder, {})
    config = SimConfig(decoder=decoder, max_errors=50, max_frames=256, seed=seed, **kw)
    res = simulate_fer(GOLDEN_CODES[code], channel, config)
    assert (res.frames, res.errors, res.ties, res.ml_certified) == GOLDEN_ROWS[key]
