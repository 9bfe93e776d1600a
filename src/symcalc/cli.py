"""Command-line workbench: construct / analyze / bounds / frozen / perms / simulate.

Exit codes: 0 on success, 2 on invalid input, 3 when a requested construction
is infeasible (the nearest achievable dimensions are reported on stderr).
Seed precedence: --seed flag, then the SYMCALC_SEED environment variable,
then 0.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import bounds as _bounds
from . import channelconstruct as _cc
from . import sim as _sim
from .calculus import symmetry_profile
from .codes import check_m, load_code, monomial_min_distance, save_code
from .construct import (
    ConstructionRequest,
    NonRepresentableError,
    construct_partially_symmetric_trace,
)

logger = logging.getLogger("symcalc")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _default_seed() -> int:
    env = os.environ.get("SYMCALC_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValueError(f"SYMCALC_SEED={env!r} is not an integer") from None


def _parse_channels(spec: str) -> list[_sim.ChannelModel]:
    kind, _, rest = spec.partition(":")
    if not rest:
        raise ValueError(f"channel spec {spec!r} needs kind:value[,value...]")
    values = [float(v) for v in rest.split(",")]
    if kind == "bec":
        return [_sim.Bec(v) for v in values]
    if kind == "awgn":
        return [_sim.BiAwgn(v) for v in values]
    raise ValueError(f"unknown channel kind {kind!r}")


def _emit(lines, out: str | None):
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args) -> int:
    req = ConstructionRequest(m=args.m, t=args.t, k=args.k, rm_order=args.rm_order)
    code, log = construct_partially_symmetric_trace(req)
    save_code(code, args.out)
    logger.info(
        "wrote (%d,%d,%d) code to %s", code.n, code.k, monomial_min_distance(code), args.out
    )
    if args.trace:
        lines = ["stage,l_hat,degree,masks"]
        lines.extend(
            f"{s.stage},{s.l_hat},{'' if s.degree is None else s.degree},"
            + " ".join(format(v, "x") for v in s.masks)
            for s in log
        )
        _emit(lines, None)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    code = load_code(args.code)
    profile = symmetry_profile(code)
    lines = ["direction,dim"]
    lines.extend(f"{i},{d}" for i, d in enumerate(profile.dims))
    lines.append(f"t={profile.t},k_tilde={profile.k_tilde}")
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.n is not None:
        m = args.n.bit_length() - 1
        if 1 << m != args.n:
            raise ValueError("--n must be a power of two")
    else:
        m = args.m
    if m is None:
        raise ValueError("one of --m or --n is required")
    check_m(m)
    t = "full" if args.t == "full" else int(args.t)
    k_range = None
    if args.k_min is not None or args.k_max is not None:
        k_min = 1 if args.k_min is None else args.k_min
        k_max = (1 << m) if args.k_max is None else args.k_max
        if not 0 < k_min <= k_max <= 1 << m:
            raise ValueError(f"need 0 < --k-min <= --k-max <= {1 << m}")
        k_range = range(k_min, k_max + 1)
    rows = _bounds.bound_curve(m, t, k_range)
    lines = ["k,rate,deriv_rate,exact"]
    lines.extend(
        f"{r.k},{r.rate:.10g},{r.deriv_rate:.10g},{int(r.exact)}" for r in rows
    )
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_frozen(args) -> int:
    if (args.bec is None) == (args.awgn is None):
        raise ValueError("exactly one of --bec or --awgn is required")
    channel = _sim.Bec(args.bec) if args.bec is not None else _sim.BiAwgn(args.awgn)
    code = _cc.polar_code(args.m, args.k, channel)
    save_code(code, args.out)
    logger.info("frozen set: %s", sorted(set(range(code.n)) - code.gen_set))
    return EXIT_OK


def _cmd_perms(args) -> int:
    code = load_code(args.code)
    channels = _parse_channels(args.channel)
    if len(channels) != 1:
        raise ValueError(f"perms ranks at one channel point, not {len(channels)}")
    sel = _cc.select_permutations(
        code,
        args.P,
        channels[0],
        min_dist=args.min_dist,
        seed=args.seed,
    )
    lines = ["perm,score"]
    lines.extend(
        ",".join(str(x) for x in perm) + f",{score:.10g}"
        for perm, score in zip(sel.perms, sel.scores)
    )
    if not sel.complete:
        print(
            f"warning: only {len(sel.perms)} of {args.P} permutations satisfy the spacing",
            file=sys.stderr,
        )
    if sel.sampled:
        print("warning: permutation space sampled, not enumerated", file=sys.stderr)
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    code = load_code(args.code)
    channels = _parse_channels(args.channel)
    config = _sim.SimConfig(
        max_errors=args.max_errors,
        max_frames=args.max_frames,
        seed=args.seed,
        decoder=args.decoder,
        list_size=args.L,
        perm_count=args.P,
        min_dist=args.min_dist,
    )
    points = _sim.fer_curve(code, channels, config)
    lines = ["ebn0_or_eps,decoder,L_or_P,frames,errors,fer,ml_certified,wilson_lo,wilson_hi,ties"]
    for p in points:
        r = p.result
        lines.append(
            f"{p.channel.parameter:.10g},{p.decoder},{p.size_label},{r.frames},{r.errors},"
            f"{r.fer:.10g},{r.ml_certified:.10g},{r.wilson_lo:.10g},{r.wilson_hi:.10g},{r.ties}"
        )
    _emit(lines, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an optimal partially symmetric code")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rm-order", type=int, default=None, dest="rm_order")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true", help="print the removal log as CSV on stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("analyze", help="derivative dimensions and symmetry profile")
    p.add_argument("--code", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("bounds", help="derivative-rate lower-bound curve as CSV")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", default="full", help="target count, or 'full'")
    p.add_argument("--k-min", type=int, default=None, dest="k_min")
    p.add_argument("--k-max", type=int, default=None, dest="k_max")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("frozen", help="polar code from channel reliabilities, written as a code file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--bec", type=float, default=None, metavar="EPS")
    p.add_argument("--awgn", type=float, default=None, metavar="EBN0_DB")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_frozen)

    p = sub.add_parser("perms", help="rank factor-graph layer permutations")
    p.add_argument("--code", required=True)
    p.add_argument("--P", type=int, required=True)
    p.add_argument("--min-dist", type=int, default=5, dest="min_dist")
    p.add_argument("--channel", default="awgn:2.0")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_perms)

    p = sub.add_parser("simulate", help="Monte Carlo FER estimation")
    p.add_argument("--code", required=True)
    p.add_argument("--decoder", choices=["sc", "scl", "perm", "ml"], default="sc")
    p.add_argument("--L", type=int, default=8)
    p.add_argument("--P", type=int, default=8)
    p.add_argument("--channel", required=True, help="bec:<eps> or awgn:<db>[,<db>...]")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-errors", type=int, default=1000, dest="max_errors")
    p.add_argument("--max-frames", type=int, default=1_000_000, dest="max_frames")
    p.add_argument("--min-dist", type=int, default=5, dest="min_dist")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    return parser


def run(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        logger.info("config: %s", {k: v for k, v in vars(args).items() if k != "func"})
        return args.func(args)
    except NonRepresentableError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
