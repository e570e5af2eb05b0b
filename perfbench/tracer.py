"""Span tracing of gfpipe, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of every gfpipe
module.  Each call of a wrapped function records a span
``[name, start_ns, end_ns, parent, request, field_ops, ratfun_ns, prec]``
in memory; ``field_ops`` and ``ratfun_ns`` are inclusive of the span's
children, and ``prec`` is the requested precision for the spans the growth
exponents use.  Spans are written out only when the run ends.

Q(r) arithmetic (``ratfun``) is called millions of times, so it gets no
spans.  Its calls are counted and timed at the outermost ratfun entry, and
that time is charged to the innermost open span, so a span's self time is
its duration minus its child spans minus the ratfun time it contains.

Several modules hold their own bindings of functions defined elsewhere
(``from .series import divide``, the builtin table's closures over
``Series.revert`` and friends).  Installation rebinds every such name, and
calls through ``cfrac``'s binding of ``divide`` are counted separately.
"""

from __future__ import annotations

import json
import math
import time
from types import FunctionType

LAYER_MODULES = ("series", "transforms", "cfrac", "triangles", "dsl", "formats", "cli", "fixtures")

# Series operators that get spans next to the public methods
_DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__",
))

# FieldElem operations counted as field ops (subtraction and division
# count once each, whatever they call inside)
_FIELD_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "inverse",
)

COUNTERS = (
    "field_ops", "const_ops", "normalize_calls", "pgcd_calls", "pgcd_ns", "ratfun_ns",
    "max_rdeg", "max_coeff_bits", "cfrac_divide_calls", "ast_nodes", "dup_subtrees",
    "out_bytes",
)


def _prec_series(args):
    return args[0].prec


def _prec_compose(args):
    return min(args[0].prec, args[1].prec)


def _prec_arg1(args):
    return args[1]


_PREC = {
    "series.Series.revert": _prec_series,
    "series.Series.compose": _prec_compose,
    "cfrac.jfrac_to_series": _prec_arg1,
    "cfrac.sfrac_to_series": _prec_arg1,
    "cfrac.series_to_jfrac": _prec_series,
    "cfrac.series_to_sfrac": _prec_series,
}


def _ast_counts(node):
    """(nodes, repeated compound subtrees) of a parsed expression."""
    from gfpipe import dsl

    nodes, seen, dups = 0, set(), 0
    todo = [node]
    while todo:
        n = todo.pop()
        nodes += 1
        kids = ()
        if isinstance(n, dsl.Bin):
            kids = (n.left, n.right)
        elif isinstance(n, dsl.Pow):
            kids = (n.base,)
        elif isinstance(n, dsl.Call):
            kids = n.args
        elif isinstance(n, dsl.ListLit):
            kids = n.items
        if kids:
            if n in seen:
                dups += 1
            seen.add(n)
        todo.extend(kids)
    return nodes, dups


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.request = -1
        self.c = dict.fromkeys(COUNTERS, 0)
        self._rf_depth = [0]

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, post=None):
        spans, stack, c = self.spans, self.stack, self.c
        prec = _PREC.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.request,
                   c["field_ops"], c["ratfun_ns"], prec(args) if prec else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
                rec[5] = c["field_ops"] - rec[5]
                rec[6] = c["ratfun_ns"] - rec[6]
            if post is not None:
                post(out)
            return out

        return wrapper

    def _ratfun(self, fn, op: bool, FieldElem, count=None):
        c, depth = self.c, self._rf_depth

        def wrapper(*args):
            if count:
                c[count] += 1
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args)
            finally:
                c["ratfun_ns"] += time.perf_counter_ns() - t0
                depth[0] = 0
            if op:
                c["field_ops"] += 1
                const = True
                for a in args:
                    if isinstance(a, FieldElem) and (len(a.num) > 1 or len(a.den) > 1):
                        const = False
                        break
                c["const_ops"] += const
                if isinstance(out, FieldElem):
                    deg = max(len(out.num), len(out.den)) - 1
                    if deg > c["max_rdeg"]:
                        c["max_rdeg"] = deg
                    for v in out.num + out.den:
                        b = v.bit_length() if v >= 0 else (-v).bit_length()
                        if b > c["max_coeff_bits"]:
                            c["max_coeff_bits"] = b
            return out

        return wrapper

    def _pgcd(self, fn):
        c = self.c

        def wrapper(a, b):
            c["pgcd_calls"] += 1
            t0 = time.perf_counter_ns()
            try:
                return fn(a, b)
            finally:
                c["pgcd_ns"] += time.perf_counter_ns() - t0

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self):
        """Wrap every gfpipe module in place; call once per process."""
        import importlib

        import gfpipe
        from gfpipe import ratfun

        mods = {name: importlib.import_module(f"gfpipe.{name}") for name in LAYER_MODULES}
        c = self.c
        replaced = {}

        def on_parse(node):
            nodes, dups = _ast_counts(node)
            c["ast_nodes"] += nodes
            c["dup_subtrees"] += dups

        def on_format(text):
            c["out_bytes"] += len(text.encode())

        posts = {"dsl.parse": on_parse, "formats.format_value": on_format}

        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__:
                    full = f"{short}.{name}"
                    replaced[obj] = self._span(full, obj, posts.get(full))
                    setattr(mod, name, replaced[obj])
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj, replaced)

        FE = ratfun.FieldElem
        for name in _FIELD_OPS:
            setattr(FE, name, self._ratfun(getattr(FE, name), True, FE))
        FE.substitute = self._ratfun(FE.substitute, False, FE)
        FE.__init__ = self._ratfun(FE.__init__, False, FE, count="normalize_calls")
        replaced[ratfun.pgcd] = self._pgcd(ratfun.pgcd)

        # rebind every module-level alias and builtin-table closure
        for mod in [gfpipe, ratfun, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj in replaced:
                    setattr(mod, name, replaced[obj])
        for handler in mods["dsl"]._BUILTINS.values():
            for cell in handler.__closure__ or ():
                if isinstance(cell.cell_contents, FunctionType) and cell.cell_contents in replaced:
                    cell.cell_contents = replaced[cell.cell_contents]

        divide = mods["cfrac"].divide

        def cfrac_divide(a, b):
            c["cfrac_divide_calls"] += 1
            return divide(a, b)

        mods["cfrac"].divide = cfrac_divide

    def _wrap_class(self, short, cls, replaced):
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            full = f"{short}.{cls.__name__}.{name}"
            if isinstance(obj, FunctionType):
                replaced[obj] = self._span(full, obj)
                setattr(cls, name, replaced[obj])
            elif isinstance(obj, classmethod):
                setattr(cls, name, classmethod(self._span(full, obj.__func__)))



def dump(path, counters, spans, extra=None):
    """Write counters and spans: a JSON header line, then one line per span."""
    with open(path, "w") as fh:
        json.dump({"counters": counters, "extra": extra or {}}, fh)
        fh.write("\n")
        for rec in spans:
            fh.write(json.dumps(rec, separators=(",", ":")))
            fh.write("\n")


def load(path):
    """(counters, extra, spans) from a file written by ``dump``."""
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return head["counters"], head["extra"], spans


def merge(parts):
    """Concatenate several processes' (counters, spans); parents re-indexed."""
    counters = dict.fromkeys(COUNTERS, 0)
    spans = []
    for c, part in parts:
        for k, v in c.items():
            counters[k] = max(counters[k], v) if k.startswith("max_") else counters[k] + v
        off = len(spans)
        for rec in part:
            rec = list(rec)
            if rec[3] >= 0:
                rec[3] += off
            spans.append(rec)
    return counters, spans


# -- metrics --------------------------------------------------------------------------

_GROUPS = {
    "series.mul": ("series.Series.__mul__", "series.Series.__rmul__"),
    "series.divide": ("series.divide", "series.Series.__truediv__", "series.Series.__rtruediv__"),
    "series.compose": ("series.Series.compose", "series.compose"),
    "series.revert": ("series.Series.revert", "series.Series.gf_revert", "series.revert",
                      "series.gf_revert"),
    "series.explog": ("series.Series.exp", "series.Series.log", "series.Series.log_derivative",
                      "series.Series.pow_rational"),
    "transforms.pipeline": ("transforms.pipeline_P", "transforms.pipeline_P_trace",
                            "transforms.reverse_P", "transforms.partial_P"),
    "cfrac.eval": ("cfrac.jfrac_to_series", "cfrac.sfrac_to_series", "cfrac.deleham",
                   "cfrac.deleham_delta1"),
    "cfrac.expand": ("cfrac.series_to_jfrac", "cfrac.series_to_sfrac"),
    "triangles.matmul": ("triangles.matmul",),
    "triangles.inverse": ("triangles.tri_inverse",),
    "triangles.riordan": ("triangles.riordan_to_triangle", "triangles.riordan_apply"),
    "triangles.prodmat": ("triangles.production_matrix",),
    "triangles.from_gf": ("triangles.triangle_from_gf",),
    "dsl.parse": ("dsl.parse",),
    "formats.format": ("formats.format_value",),
    "cli.main": ("cli.cli_main",),
    "fixtures.run": ("fixtures.run_fixtures", "fixtures.run_fixture"),
}

# exact counts: spans of exactly these names, nested ones included
_CALLS = {
    "series.mul_calls": ("series.Series.__mul__", "series.Series.__rmul__"),
    "series.divide_calls": ("series.divide",),
    "series.compose_calls": ("series.Series.compose",),
    "series.revert_calls": ("series.Series.revert",),
}

_GROWTH = {
    "growth.revert_ops_exp": ("series.Series.revert",),
    "growth.compose_ops_exp": ("series.Series.compose",),
    "growth.cfrac_eval_ops_exp": ("cfrac.jfrac_to_series", "cfrac.sfrac_to_series"),
    "growth.cfrac_expand_ops_exp": ("cfrac.series_to_jfrac", "cfrac.series_to_sfrac"),
}


def _outermost(spans, names):
    """Indices of spans in ``names`` with no ancestor in ``names``."""
    out = []
    for i, rec in enumerate(spans):
        if rec[0] not in names:
            continue
        p = rec[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def _slope(points):
    """Least-squares slope of log(ops) against log(prec); 0 without two precisions."""
    pts = [(math.log(p), math.log(o)) for p, o in points if p >= 2 and o > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(counters, spans) -> dict:
    """Per-layer metrics of one traced pass (times in ms)."""
    n = len(spans)
    child_dur = [0] * n
    child_rf = [0] * n
    for rec in spans:
        p = rec[3]
        if p >= 0:
            child_dur[p] += rec[2] - rec[1]
            child_rf[p] += rec[6]
    self_ns = dict.fromkeys(LAYER_MODULES, 0)
    eval_self = 0
    for i, rec in enumerate(spans):
        own = (rec[2] - rec[1]) - child_dur[i] - (rec[6] - child_rf[i])
        layer = rec[0].split(".", 1)[0]
        self_ns[layer] += own
        if layer == "dsl" and rec[0] != "dsl.parse":
            eval_self += own

    m = {}
    names = {rec[0] for rec in spans}
    counts = {}
    for rec in spans:
        counts[rec[0]] = counts.get(rec[0], 0) + 1

    def incl_ms(group):
        members = set(_GROUPS[group]) & names
        return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, members)) / 1e6 if members else 0.0

    def group_calls(group):
        members = set(_GROUPS[group]) & names
        return len(_outermost(spans, members)) if members else 0

    fops = counters["field_ops"]
    m["ratfun.field_ops"] = fops
    m["ratfun.normalize_calls"] = counters["normalize_calls"]
    m["ratfun.pgcd_calls"] = counters["pgcd_calls"]
    m["ratfun.pgcd_ms"] = counters["pgcd_ns"] / 1e6
    m["ratfun.self_ms"] = counters["ratfun_ns"] / 1e6
    m["ratfun.const_op_frac"] = counters["const_ops"] / fops if fops else 0.0
    m["ratfun.max_rdeg"] = counters["max_rdeg"]
    m["ratfun.max_coeff_bits"] = counters["max_coeff_bits"]

    for key, members in _CALLS.items():
        m[key] = sum(counts.get(name, 0) for name in members)
    for op in ("mul", "divide", "compose", "revert", "explog"):
        m[f"series.{op}_ms"] = incl_ms(f"series.{op}")
    m["series.self_ms"] = self_ns["series"] / 1e6

    m["transforms.pipeline_calls"] = group_calls("transforms.pipeline")
    m["transforms.pipeline_ms"] = incl_ms("transforms.pipeline")
    m["transforms.self_ms"] = self_ns["transforms"] / 1e6

    m["cfrac.eval_calls"] = group_calls("cfrac.eval")
    m["cfrac.expand_calls"] = group_calls("cfrac.expand")
    m["cfrac.eval_ms"] = incl_ms("cfrac.eval")
    m["cfrac.expand_ms"] = incl_ms("cfrac.expand")
    m["cfrac.divide_calls"] = counters["cfrac_divide_calls"]
    m["cfrac.self_ms"] = self_ns["cfrac"] / 1e6

    for op in ("matmul", "inverse", "riordan", "prodmat", "from_gf"):
        m[f"triangles.{op}_ms"] = incl_ms(f"triangles.{op}")
    m["triangles.self_ms"] = self_ns["triangles"] / 1e6

    m["dsl.parse_ms"] = incl_ms("dsl.parse")
    m["dsl.eval_self_ms"] = eval_self / 1e6
    m["dsl.ast_nodes"] = counters["ast_nodes"]
    m["dsl.dup_subtrees"] = counters["dup_subtrees"]

    m["formats.format_ms"] = incl_ms("formats.format")
    m["formats.out_bytes"] = counters["out_bytes"]
    m["cli.main_ms"] = incl_ms("cli.main")
    m["fixtures.run_ms"] = incl_ms("fixtures.run")

    for key, members in _GROWTH.items():
        members = set(members)
        pts = [(spans[i][7], spans[i][5]) for i in _outermost(spans, members)]
        m[key] = _slope(pts)
    return m
