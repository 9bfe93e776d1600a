"""Per-layer spans recorded from outside the program.

``Tracer.install`` rebinds the public names that callers look up, in every
loaded ``symcalc`` module that holds them, to timing wrappers; ``uninstall``
puts the originals back.  Spans (id, parent, name, phase, start, end) are
kept in memory and written out by ``dump`` when the run ends.  A phase is
"setup" or the index of a traced round, so that a layer's cost can be
reported per set-up plus one round.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

from refcheck import correlation

# (module, attribute) pairs wrapped in a traced run; the span name is
# "<layer>.<attribute>" with the layer the module's last name component.
TARGETS = (
    ("symcalc.sim", "simulate_fer"),
    ("symcalc.sim", "frame_rng"),
    ("symcalc.sim", "transmit"),
    ("symcalc.decode", "sc_decode_batch"),
    ("symcalc.decode", "scl_decode_batch"),
    ("symcalc.decode", "ml_decode_bruteforce"),
    ("symcalc.channelconstruct", "select_permutations"),
    ("symcalc.construct", "construct_partially_symmetric"),
    ("symcalc.calculus", "symmetry_profile"),
    ("symcalc.calculus", "directional_derivative_code"),
    ("symcalc.bitmath", "rref"),
    ("symcalc.codes", "ebch_code"),
    ("symcalc.codes", "monomial_to_linear"),
    ("symcalc.bounds", "partially_symmetric_lb"),
)

# spans of benchmark bookkeeping: subtracted from their parent's self time
_BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, object, float, float]] = []
        self.counts: dict[tuple[str, object], float] = defaultdict(float)
        self.phase: object = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._perm_groups: list[np.ndarray] = []
        self._perm_llrs = None
        self._perm_context = False
        self.perm_frames = 0
        self.perm_first_wins = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        modules = [mod for name, mod in sys.modules.items() if name.startswith("symcalc") and mod]
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrapper(mod_name.rsplit(".", 1)[-1], attr, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans) + len(self._stack) + 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, self.phase, start, end))

    def _wrapper(self, layer: str, attr: str, original):
        tracer = self
        base = f"{layer}.{attr}"

        def wrapped(*args, **kwargs):
            name = base
            if attr == "scl_decode_batch":
                name = f"{base}.L{_arg(args, kwargs, 2, 'L')}"
            if attr == "simulate_fer":
                tracer._perm_context = _arg(args, kwargs, 2, "config").decoder == "perm"
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)
            tracer.counts[(base + ".calls", tracer.phase)] += 1
            if attr == "simulate_fer":
                tracer._perm_flush()
                tracer._perm_context = False
            elif attr == "sc_decode_batch":
                tracer.counts[(base + ".frames", tracer.phase)] += out[0].shape[0]
                if tracer._perm_context:
                    tracer._perm_candidate(_arg(args, kwargs, 1, "llrs"), out[0])
            elif attr == "rref":
                mat = _arg(args, kwargs, 0, "mat")
                tracer.counts[(base + ".cells", tracer.phase)] += mat.rows * mat.cols
            return out

        wrapped.__wrapped__ = original
        return wrapped

    # -- permutation decoding: is the first order's candidate the one chosen?

    def _perm_candidate(self, llrs, codewords) -> None:
        sid, parent = self._open()
        start = time.perf_counter()
        if llrs is not self._perm_llrs:
            self._perm_flush()
            self._perm_llrs = llrs
        self._perm_groups.append(correlation(codewords, llrs))
        self._close(sid, parent, _BOOKKEEPING, start)

    def _perm_flush(self) -> None:
        if self._perm_groups:
            corr = np.stack(self._perm_groups)
            self.perm_frames += corr.shape[1]
            self.perm_first_wins += int((corr[0] >= corr.max(axis=0)).sum())
        self._perm_groups = []
        self._perm_llrs = None

    # -- results -------------------------------------------------------------

    def layer_metrics(self, per_layer, traced_rounds: int, overhead_pct: float, factor) -> dict:
        """The (name, unit) metrics of per_layer, as the cost of one set-up
        plus one traced round.

        A name ending in ".s" is a span's inclusive seconds, ".self_s" its
        seconds minus its wrapped children's, and any other a count.
        factor(phase) scales the seconds of a phase to the reference machine
        speed; counts are not scaled.
        """
        self._perm_flush()
        rounds = max(traced_rounds, 1)
        covered: dict[int, float] = defaultdict(float)
        for sid, parent, name, phase, start, end in self.spans:
            covered[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        for sid, parent, name, phase, start, end in self.spans:
            if name == _BOOKKEEPING:
                continue
            share = factor(phase) if phase == "setup" else factor(phase) / rounds
            seconds[name + ".s"] += (end - start) * share
            seconds[name + ".self_s"] += (end - start - covered[sid]) * share
        counts: dict[str, float] = defaultdict(float)
        for (name, phase), value in self.counts.items():
            counts[name] += value if phase == "setup" else value / rounds

        values = dict(seconds)
        values.update(counts)
        values["trace.overhead_pct"] = overhead_pct
        values["decode.perm.first_order_wins"] = (
            self.perm_first_wins / self.perm_frames if self.perm_frames else 0.0
        )
        return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in per_layer}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "phase", "start", "end"],
                    "spans": self.spans,
                },
                fh,
            )


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]
