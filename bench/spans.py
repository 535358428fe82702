"""Span recorder for the traced run.

Timing wrappers are installed around the public functions and methods of
each plauscalc module (listed in ``SPANS``) and removed again afterwards;
``src/`` is not edited.  ``EpsPolynomial`` is deliberately not wrapped, so
the overhead stays bounded.  Each span records its name, start, end, parent
span and item id.  Spans stay in memory (compact arrays) and are written out
when the run ends.  A layer is the module a span's name starts with; its
self time is its span time minus the time its child spans cover.

Besides spans, the wrappers count what the layer metrics need: degree,
coefficient size and constancy of every returned field value, focal pairs
and selection functions counted from the inputs, and the members a combine
returns.
"""

from __future__ import annotations

import array
import functools
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, class or None, attribute names) for every wrapped callable.
SPANS = (
    ("cli", None, ("dispatch",)),
    ("scenario", None, ("parse_scenario", "run_query")),
    ("parser", None, ("parse_eps_expr",)),
    ("evidence", "MassFunction", ("__init__",)),
    ("evidence", None, ("dempster_combine", "bel_pl", "mass_to_credal")),
    ("credal", "ExtDist", ("__init__",)),
    ("credal", None, ("combine_laplace", "condition", "envelopes", "event_plausibility",
                      "decompose", "more_plausible")),
    ("embedding", None, ("verify_embedding",)),
    ("embedding", "Embedding", ("frac_eq", "frac_lt", "frac_mul", "frac_add", "field_eq",
                                "field_sign", "field_lt", "field_add", "field_neg",
                                "field_mul", "field_inverse")),
    ("refinement", None, ("two_path_eval",)),
    ("refinement", "Model", ("refine_subcase", "refine_exclusive_pair")),
    ("kernels", None, ("check_axioms", "archimedean_check", "separability_check")),
    ("kernels", "Kernel", ("F", "G", "S", "g_defined")),
    ("kernels", "RatKernel", ("contains",)),
    ("kernels", "EpsKernel", ("contains",)),
    ("kernels", "BoolKernel", ("contains",)),
    ("epsnum", None, ("poly_gcd",)),
    ("epsnum", "EpsRational", ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                               "__neg__", "__mul__", "__rmul__", "reciprocal",
                               "__truediv__", "__rtruediv__", "__pow__", "compare",
                               "__eq__", "__lt__", "__le__", "__gt__", "__ge__")),
)

LAYERS = ("epsnum", "kernels", "refinement", "embedding", "credal", "evidence",
          "parser", "scenario", "cli")


class Recorder:
    """Collects spans and counters for one traced pass at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.item = -1
        self.keep_spans = True
        self._installed: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_item = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.under = defaultdict(int)  # (parent name id, name id) -> spans
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [span index, name id, child time]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ----------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        rec = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = rec._stack
            parent = stack[-1] if stack else None
            if rec.keep_spans:
                idx = len(rec.span_start)
                rec.span_name.append(nid)
                rec.span_parent.append(parent[0] if parent else -1)
                rec.span_item.append(rec.item)
                rec.span_start.append(0.0)
                rec.span_end.append(0.0)
            else:
                idx = -1
            rec.under[(parent[1] if parent else -1, nid)] += 1
            if before is not None:
                before(rec.counts, args)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                rec.calls[nid] += 1
                rec.self_s[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if idx >= 0:
                    rec.span_start[idx] = t0
                    rec.span_end[idx] = t1
            if after is not None:
                after(rec.counts, args, result)
            return result

        return span

    def install(self, modules: dict) -> None:
        for mod_name, cls_name, attrs in SPANS:
            mod = modules[mod_name]
            owner = getattr(mod, cls_name) if cls_name else mod
            for attr in attrs:
                orig = owner.__dict__[attr]
                label = f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}"
                before, after = _HOOKS.get((mod_name, cls_name, attr), (None, None))
                if mod_name == "epsnum" and cls_name:
                    after = _observe_value
                wrapped = self.wrap(label, orig, before, after)
                if cls_name:
                    setattr(owner, attr, wrapped)
                    self._installed.append((owner, attr, orig))
                    continue
                # module functions: replace every reference held by a plauscalc
                # module, since modules import each other's names
                for m in modules.values():
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
                            self._installed.append((m, key, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- results ---------------------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float]]:
        return {self.names[i]: (n, self.self_s[i]) for i, n in self.calls.items()}

    def under_count(self, parent: str, child: str) -> int:
        return self.under.get((self._ids.get(parent, -2), self._ids.get(child, -2)), 0)

    def write(self, path: Path) -> int:
        """Write the kept spans: a JSON header line, then the raw arrays."""
        n = len(self.span_start)
        header = {"names": self.names, "count": n,
                  "arrays": ["name:i32", "parent:i32", "item:i32", "start:f64", "end:f64"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_item,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        return n


# -- counters read at the span boundaries --------------------------------------


def _observe_value(counts, args, result):
    x = args[0] if result is None else result  # __init__ returns None
    num = getattr(x, "num", None)
    if num is None:  # comparisons return bool or int
        return
    den = x.den
    counts["epsnum.values"] += 1
    nd, dd = len(num.coeffs) - 1, len(den.coeffs) - 1
    if nd <= 0 and dd <= 0:
        counts["epsnum.const_values"] += 1
    deg = max(nd, dd)
    if deg > counts["epsnum.max_degree"]:
        counts["epsnum.max_degree"] = deg
    bits = max(abs(c.numerator).bit_length() for c in num.coeffs + den.coeffs) if num.coeffs else 0
    if bits > counts["epsnum.max_coeff_bits"]:
        counts["epsnum.max_coeff_bits"] = bits


def _focal_pairs(counts, args):
    counts["evidence.focal_pairs"] += len(args[0].focal) * len(args[1].focal)


def _selections(counts, args):
    n = 1
    for mask, _ in args[0].focal:
        n *= bin(mask).count("1")
    counts["evidence.selection_functions"] += n


def _members(counts, args, result):
    counts["credal.members_out"] += len(result.dists)
    distinct = {tuple((p.num.coeffs, p.den.coeffs) for p in d.probs) for d in result.dists}
    counts["credal.distinct_members"] += len(distinct)


def _chars(counts, args):
    counts["parser.chars"] += len(args[0])


_HOOKS = {
    ("evidence", None, "dempster_combine"): (_focal_pairs, None),
    ("evidence", None, "mass_to_credal"): (_selections, None),
    ("credal", None, "combine_laplace"): (None, _members),
    ("parser", None, "parse_eps_expr"): (_chars, None),
}


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pass (self times in seconds)."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    by_name = rec.by_name()
    for name, (n, s) in by_name.items():
        layer = name.split(".", 1)[0]
        calls[layer] += n
        self_s[layer] += s
    get = lambda name: by_name.get(name, (0, 0.0))
    c = rec.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    out["epsnum.gcd_calls"], out["epsnum.gcd_self_s"] = get("epsnum.poly_gcd")
    out["epsnum.max_degree"] = c["epsnum.max_degree"]
    out["epsnum.max_coeff_bits"] = c["epsnum.max_coeff_bits"]
    out["epsnum.const_share"] = _ratio(c["epsnum.const_values"], c["epsnum.values"])
    contains = [get(f"kernels.{k}.contains") for k in ("RatKernel", "EpsKernel", "BoolKernel")]
    ops = sum(get(f"kernels.Kernel.{op}")[0] for op in ("F", "G", "S", "g_defined"))
    out["kernels.contains_calls"] = sum(n for n, _ in contains)
    out["kernels.contains_self_s"] = sum(s for _, s in contains)
    out["kernels.contains_per_op"] = _ratio(out["kernels.contains_calls"], ops)
    frac_add = get("embedding.Embedding.frac_add")[0]
    out["embedding.frac_add_calls"] = frac_add
    out["embedding.unit_tries_per_frac_add"] = _ratio(
        rec.under_count("embedding.Embedding.frac_add", "kernels.Kernel.g_defined"), frac_add)
    out["evidence.focal_pairs"] = c["evidence.focal_pairs"]
    out["evidence.selection_functions"] = c["evidence.selection_functions"]
    out["credal.members_out"] = c["credal.members_out"]
    out["credal.distinct_member_ratio"] = _ratio(c["credal.distinct_members"], c["credal.members_out"])
    out["parser.chars"] = c["parser.chars"]
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0
