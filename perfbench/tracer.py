"""Span tracer that wraps persym's public functions from outside.

`Tracer.install` replaces each named function by a timing wrapper on every
persym module that holds it (so `census.rank_of_rows`, `builders.rank_of_rows`
and `cli.g_closed` are all rebound), and `uninstall` puts the originals back.

A span has a name, start, end, parent span and run id. Coarse spans (CLI
commands, enumerations, closed-form tables) are kept one by one. Per-point
calls, which run millions of times in one workload, are rolled up per
(parent span, name) into a call count and total time, so memory stays
bounded while self times stay exact. Everything stays in memory until
`dump` writes it out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (span name, module, attribute). A class attribute is patched on the class.
TARGETS = [
    ("gf2.rank_of_rows", "persym.gf2", "rank_of_rows"),
    ("gf2.rank", "persym.gf2", "rank"),
    ("builders.hankel_rows", "persym.builders", "hankel_rows"),
    ("builders.hankel", "persym.builders", "hankel"),
    ("builders.stacked", "persym.builders", "stacked"),
    ("builders.rank_profile", "persym.builders", "rank_profile"),
    ("laurent.UnitSeries", "persym.laurent", "UnitSeries.__init__"),
    ("laurent.poly_mul", "persym.laurent", "poly_mul"),
    ("laurent.char_E_of_product", "persym.laurent", "char_E_of_product"),
    ("dyadic.add", "persym.dyadic", "DyadicRational.__add__"),
    ("expsum.g_closed", "persym.expsum", "g_closed"),
    ("expsum.h_closed", "persym.expsum", "h_closed"),
    ("expsum.fmulti_closed", "persym.expsum", "fmulti_closed"),
    ("expsum.h_direct", "persym.expsum", "h_direct"),
    ("expsum.g_direct", "persym.expsum", "g_direct"),
    ("expsum.fmulti_direct", "persym.expsum", "fmulti_direct"),
    ("census.enum_gamma", "persym.census", "enum_gamma"),
    ("census.enum_quadruple", "persym.census", "enum_quadruple"),
    ("census.enum_sigma", "persym.census", "enum_sigma"),
    ("census.enum_stacked_gamma", "persym.census", "enum_stacked_gamma"),
    ("census.integrate_coset", "persym.census", "integrate_coset"),
    ("census.repcount_integral", "persym.census", "repcount_integral"),
    ("census.repcount_bruteforce", "persym.census", "repcount_bruteforce"),
    ("census.repcount_multi_formula", "persym.census", "repcount_multi_formula"),
    ("formulas.gamma_table", "persym.formulas", "gamma_table"),
    ("formulas.gamma_closed", "persym.formulas", "gamma_closed"),
    ("formulas.quad_table", "persym.formulas", "quad_table"),
    ("formulas.stacked1_gamma_table", "persym.formulas", "stacked1_gamma_table"),
    ("formulas.stacked1_gamma_closed", "persym.formulas", "stacked1_gamma_closed"),
    ("formulas.stacked_gamma_table", "persym.formulas", "stacked_gamma_table"),
    ("formulas.a_coeff_closed", "persym.formulas", "a_coeff_closed"),
    ("formulas.a_coeff_recurrence", "persym.formulas", "a_coeff_recurrence"),
    ("formulas.a_coeff_table", "persym.formulas", "a_coeff_table"),
    ("formulas.landsberg_table", "persym.formulas", "landsberg_table"),
]

# Called once per domain point or per term: rolled up, not kept one by one.
HOT = {
    "gf2.rank_of_rows",
    "gf2.rank",
    "builders.hankel_rows",
    "builders.hankel",
    "builders.stacked",
    "builders.rank_profile",
    "laurent.UnitSeries",
    "laurent.poly_mul",
    "laurent.char_E_of_product",
    "dyadic.add",
    "expsum.g_closed",
    "expsum.h_closed",
    "expsum.fmulti_closed",
    "formulas.gamma_closed",
}

LAYERS = ("gf2", "builders", "laurent", "dyadic", "census", "formulas", "expsum", "cli")


class Tracer:
    """Spans, rollups and per-name totals of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # open frames: [start_ns, child_ns, span id (None when rolled up),
        #               nearest coarse span id, parent coarse span id]
        self._stack: List[list] = []
        self.spans: List[Tuple[int, str, int, int, int]] = []
        self.rollups: Dict[Tuple[int, str], List[int]] = {}
        # name -> [calls, total_ns, self_ns]
        self.stats: Dict[str, List[int]] = {}
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else 0
        if name in HOT:
            frame = [0, 0, None, parent, parent]
        else:
            frame = [0, 0, self._next_id, self._next_id, parent]
            self._next_id += 1
        self._stack.append(frame)
        frame[0] = time.perf_counter_ns()
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - frame[0]
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if frame[2] is None:
            roll = self.rollups.get((frame[4], name))
            if roll is None:
                roll = self.rollups[(frame[4], name)] = [0, 0]
            roll[0] += 1
            roll[1] += duration
        else:
            self.spans.append((frame[2], name, frame[0], end, frame[4]))

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(name, frame)

        return traced

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame)

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "persym" or key.startswith("persym.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self.wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """Per layer (module): calls and self time in seconds."""
        out = {layer: [0, 0] for layer in LAYERS}
        for name, (calls, _total, self_ns) in self.stats.items():
            layer = name.split(".")[0]
            out[layer][0] += calls
            out[layer][1] += self_ns
        return {layer: (calls, ns / 1e9) for layer, (calls, ns) in out.items()}

    def dump(self, path) -> None:
        record = {
            "run_id": self.run_id,
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "run_id"],
            "spans": [list(span) + [self.run_id] for span in self.spans],
            "rollup_fields": ["parent", "name", "calls", "total_ns"],
            "rollups": [[parent, name, calls, total]
                        for (parent, name), (calls, total) in sorted(self.rollups.items())],
            "stat_fields": ["calls", "total_ns", "self_ns"],
            "stats": self.stats,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
