"""The benchmark's four workloads.

A workload's set-up builds its codes and layer orders and returns the list of
operations one round performs.  Every round performs the same operations,
so a run attempts whole rounds; an operation is one ``simulate_fer`` call
or one grid code.  Program entry points are looked up on their modules at
call time, so that a traced run sees the calls through its wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import symcalc.bitmath
import symcalc.bounds
import symcalc.calculus
import symcalc.channelconstruct
import symcalc.codes
import symcalc.construct
import symcalc.decode
import symcalc.sim

import refcheck as R

FRAME_BATCH = 256  # simulate_fer's default batch; the benchmark keeps it
NO_ERROR_STOP = 10**9  # above every frame budget, so the error stop never fires


@dataclass
class Op:
    """One operation: `call(round)` is the timed program call, `check(out)` the
    per-operation output check, run outside the timed region, and `warm()`
    the set-up's warm-up of the operation's kind."""

    kind: str
    items: int
    call: Callable[[int], object]
    check: Callable[[object], None]
    warm: Callable[[], object]
    spec: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    unit: str  # what `items` counts: "frames" or "codes"
    ops: list[Op]
    verify: Callable[[list], dict]  # round-0 outputs -> facts from the independent checks
    rates: Callable[[dict], dict]  # per-kind items/s -> the named per-decoder rates


def sim_seed(seed: int, rnd: int) -> int:
    """The simulate_fer seed of a round: every round decodes fresh frames."""
    return (seed << 20) + rnd


# ---------------------------------------------------------------------------
# Monte Carlo FER


def _fer_op(kind, code, channel, frames, seed, decoder, layer_perm=None, **cfg) -> Op:
    sim = symcalc.sim

    def call(rnd: int, budget: int = frames):
        config = sim.SimConfig(
            max_errors=NO_ERROR_STOP, max_frames=budget, seed=sim_seed(seed, rnd),
            decoder=decoder, **cfg,
        )
        return sim.simulate_fer(code, channel, config, layer_perm)

    def check(res):
        R.require(res.frames == frames and res.stop_reason == "max_frames",
                  f"{kind}: ran {res.frames} frames, stopped on {res.stop_reason}")
        if decoder in ("ml", "scl") and cfg.get("list_size", 1 << code.k) >= 1 << code.k:
            R.require(res.ml_certified == 1.0, f"{kind}: ml_certified {res.ml_certified} on an exact decoder")
        if decoder == "ml":
            R.require(res.errors == res.ties, f"{kind}: {res.errors - res.ties} ML errors are not ties")

    spec = dict(code=code, frames=frames, seed=seed, decoder=decoder, layer_perm=layer_perm, **cfg)
    return Op(kind, frames, call, check, lambda: call(-1, min(frames, FRAME_BATCH)), spec)


def _channel_key(channel) -> tuple[str, float]:
    if isinstance(channel, symcalc.sim.Bec):
        return ("bec", channel.eps)
    return ("awgn", channel.ebn0_db)


def verify_fer_op(op: Op, result, channel, sc_sample: int) -> dict:
    """Regenerate, decode through the public batch decoders and rescore the
    frames of one simulate_fer call; returns what the checks saw."""
    dec = symcalc.decode
    spec = op.spec
    code, decoder = spec["code"], spec["decoder"]
    m, masks = code.m, code.gen_set
    counts: dict = {}
    facts = {"frames_checked": 0, "sc_reference_frames": 0, "recoverable_frames": 0}
    gen = R.generator_rows(m, masks)
    for lo in range(0, spec["frames"], FRAME_BATCH):
        hi = min(lo + FRAME_BATCH, spec["frames"])
        sent, llrs = R.regenerate_frames(m, masks, _channel_key(channel), sim_seed(spec["seed"], 0), lo, hi)
        if decoder == "sc":
            decoded, _, ties = dec.sc_decode_batch(code, llrs, spec["layer_perm"])
            if lo == 0:
                R.check_sc_reference(op.kind, m, masks, llrs[:sc_sample], decoded, ties, spec["layer_perm"])
                facts["sc_reference_frames"] += min(sc_sample, hi - lo)
        elif decoder == "scl":
            lists, _, _ = dec.scl_decode_batch(code, llrs, spec["list_size"], spec["layer_perm"])
            R.check_supported(f"{op.kind} list", m, masks, lists)
            decoded = R.pick_best(lists, llrs)
        elif decoder == "perm":
            cands = []
            for i, perm in enumerate(spec["perms"]):
                cw, _, ties = dec.sc_decode_batch(code, llrs, perm)
                if lo == 0 and i < 2:
                    R.check_sc_reference(f"{op.kind} order {i}", m, masks, llrs[:sc_sample], cw, ties, perm)
                    facts["sc_reference_frames"] += min(sc_sample, hi - lo)
                cands.append(cw)
            stack = np.stack(cands, axis=1)
            R.check_supported(f"{op.kind} candidates", m, masks, stack)
            decoded = R.pick_best(stack, llrs)
            R.check_dominates(op.kind, decoded, cands[0], llrs)
        else:
            decoded = np.stack([dec.ml_decode_bruteforce(code, llr).codeword.to_array() for llr in llrs])
        R.check_supported(op.kind, m, masks, decoded)
        if decoder in ("ml", "scl") and spec.get("list_size", 1 << code.k) >= 1 << code.k:
            facts["recoverable_frames"] += R.check_erasure_recovery(op.kind, gen, llrs, sent, decoded)
        counts = R.add_counts(counts, R.score(decoded, sent, llrs))
        facts["frames_checked"] += hi - lo
    R.check_counts(op.kind, counts, result)
    return facts


def _fer_verify(ops, channel, sc_sample):
    def verify(results):
        # an operation that raised is already counted as failed and has nothing to check
        return {
            op.kind: verify_fer_op(op, res, channel, sc_sample)
            for op, res in zip(ops, results)
            if res is not None
        }
    return verify


def fer_sc_n256(seed: int) -> Workload:
    """SC at 2 dB on both criterion-9 codes, each under its best layer order."""
    ch = symcalc.sim.BiAwgn(2.0)
    ops = []
    for t, k in ((3, 127), (5, 128)):
        code = symcalc.construct.construct_partially_symmetric(
            symcalc.construct.ConstructionRequest(m=8, t=t, k=k, rm_order=4))
        best = symcalc.channelconstruct.select_permutations(code, 1, ch).perms[0]
        ops.append(_fer_op(f"sc-t{t}", code, ch, 1024, seed, "sc", best))

    def rates(per_kind):
        frames = sum(op.items for op in ops)
        return {"sc_frames_per_s": frames / sum(op.items / per_kind[op.kind] for op in ops)}

    return Workload("fer-sc-n256", "frames", ops, _fer_verify(ops, ch, 8), rates)


def fer_list_n256(seed: int) -> Workload:
    """SCL-8, SCL-32 and perm-32 at 2 dB on the t=5 criterion-9 code."""
    ch = symcalc.sim.BiAwgn(2.0)
    code = symcalc.construct.construct_partially_symmetric(
        symcalc.construct.ConstructionRequest(m=8, t=5, k=128, rm_order=4))
    best = symcalc.channelconstruct.select_permutations(code, 1, ch).perms[0]
    sel = symcalc.channelconstruct.select_permutations(code, 32, ch, min_dist=5)
    if not sel.complete:
        raise RuntimeError("select_permutations found fewer than 32 spread-out layer orders")
    frames = FRAME_BATCH
    ops = [
        _fer_op("scl8", code, ch, frames, seed, "scl", best, list_size=8),
        _fer_op("scl32", code, ch, frames, seed, "scl", best, list_size=32),
        _fer_op("perm32", code, ch, frames, seed, "perm", None, perms=sel.perms),
    ]

    def rates(per_kind):
        return {f"{kind}_frames_per_s": per_kind[kind] for kind in ("scl8", "scl32", "perm32")}

    return Workload("fer-list-n256", "frames", ops, _fer_verify(ops, ch, 4), rates)


def small_bec(seed: int) -> Workload:
    """The (16,8) worked code on BEC(0.5): SC, SCL-256 and brute-force ML."""
    ch = symcalc.sim.Bec(0.5)
    code = symcalc.construct.construct_partially_symmetric(
        symcalc.construct.ConstructionRequest(m=4, t=3, k=8))
    frames = 1024
    ops = [
        _fer_op("sc", code, ch, frames, seed, "sc"),
        _fer_op("scl256", code, ch, frames, seed, "scl", list_size=256),
        _fer_op("ml", code, ch, frames, seed, "ml"),
    ]

    def rates(per_kind):
        return {f"{kind}_frames_per_s": per_kind[kind] for kind in ("sc", "scl256", "ml")}

    return Workload("small-bec", "frames", ops, _fer_verify(ops, ch, 64), rates)


# ---------------------------------------------------------------------------
# algebra grid

GRID_M = 9
GRID_PER_T = 3  # dimensions per t: the first, middle and last representable k
EBCH_DELTAS = (3, 11, 31)


def _grid_op(m, t, k) -> Op:
    def call(rnd: int):
        code = symcalc.construct.construct_partially_symmetric(
            symcalc.construct.ConstructionRequest(m=m, t=t, k=k))
        prof = symcalc.calculus.symmetry_profile(code)
        lb, _ = symcalc.bounds.partially_symmetric_lb(m, t, k)
        return code.gen_set, prof, lb

    def check(out):
        masks, prof, lb = out
        R.check_grid_code(m, t, k, masks, prof, lb)

    return Op("grid", 1, call, check, lambda: call(-1), dict(m=m, t=t, k=k))


def _ebch_op(fld, delta) -> Op:
    m = fld.m

    def call(rnd: int):
        code = symcalc.codes.ebch_code(fld, delta)
        return code.k, symcalc.calculus.symmetry_profile(code)

    def check(out):
        k, prof = out
        full_lb, _ = symcalc.bounds.fully_symmetric_lb(m, k)
        R.check_ebch_code(m, delta, k, prof, full_lb)

    return Op("ebch", 1, call, check, lambda: call(-1), dict(m=m, delta=delta))


def algebra_grid(seed: int) -> Workload:
    """A fixed sub-slice of the m=9 criterion-2 grid, then eBCH codes at m=9.

    The seed fixes the order in which the round visits the codes, not which
    codes it visits, so that every seed does the same work.
    """
    ops = []
    for t in range(1, GRID_M + 1):
        ks = symcalc.bounds.representable_dimensions(GRID_M, t)
        picks = sorted({ks[round(i * (len(ks) - 1) / (GRID_PER_T - 1))] for i in range(GRID_PER_T)})
        ops.extend(_grid_op(GRID_M, t, k) for k in picks)
    random.Random(seed).shuffle(ops)
    fld = symcalc.bitmath.GF2mField(GRID_M)
    ops.extend(_ebch_op(fld, delta) for delta in EBCH_DELTAS)

    def verify(results):
        # every grid code is checked as it is built; nothing is left for later
        return {"codes_checked": len(results)}

    def rates(per_kind):
        codes = len(ops)
        return {"grid_codes_per_s": codes / sum(op.items / per_kind[op.kind] for op in ops)}

    return Workload("algebra-grid", "codes", ops, verify, rates)


WORKLOADS = {
    "fer-sc-n256": fer_sc_n256,
    "fer-list-n256": fer_list_n256,
    "algebra-grid": algebra_grid,
    "small-bec": small_bec,
}
