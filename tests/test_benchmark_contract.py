"""The names and return shapes that perfbench reads from symcalc.

perfbench's tracer wraps each `(module, attribute)` of its TARGETS tuple with
`getattr`, so deleting any of them breaks every traced run; its output checks
call the decoders below.  TARGETS is read with `ast`, without importing
perfbench.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from symcalc.construct import ConstructionRequest, construct_partially_symmetric
from symcalc.decode import ml_decode_bruteforce, sc_decode_batch, scl_decode_batch
from symcalc.sim import BiAwgn, draw_frames

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_every_tracer_target_exists():
    targets = tracer_targets()
    assert targets
    missing = [(mod, attr) for mod, attr in targets if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


def test_decoder_returns_read_by_the_benchmark():
    code = construct_partially_symmetric(ConstructionRequest(m=4, t=3, k=8))
    _, sent, llrs = draw_frames(code, BiAwgn(2.0), 1, 0, 4)
    cw, u, ties = sc_decode_batch(code, llrs)
    assert cw.shape == u.shape == sent.shape and ties.shape == (4,)
    lists, u, penalties = scl_decode_batch(code, llrs, 8)
    assert lists.shape == u.shape == (4, 8, code.n) and penalties.shape == (4, 8)
    for llr in llrs:
        decoded = ml_decode_bruteforce(code, llr).codeword.to_array()
        assert decoded.shape == (code.n,) and decoded.dtype == np.uint8
