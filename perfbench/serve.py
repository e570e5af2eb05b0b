"""The serving process of the benchmark.  ``run.py`` starts it; it is not
meant to be run by hand.

  serve.py probe SPAWN_WALL REQUESTS        one set-up measurement
  serve.py run REQUESTS MODE SECONDS [SPANS] the measured passes
  serve.py child SPANS SPAWN_WALL REQ -- ARGV one traced CLI request

REQUESTS is a JSON file holding the list of command lines.  ``run`` prints
one JSON document on stdout.  Before each request, and after each set-up,
the process times ``calibrate``, a fixed piece of work that calls no gfpipe
code; ``run.py`` scales the timings by it (see README.md).  MODE ``inproc``
calls ``gfpipe.cli.cli_main`` in this process; MODE ``cli`` starts one ``python -m gfpipe.cli`` process per
request, one at a time.  With SPANS the run makes one untraced pass (two in
process, the first to warm up), then installs the tracer, makes one traced
pass, and writes the spans there.
"""

import time

_STARTED = time.time()  # as early as possible: the end of interpreter start-up

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 120
SETUP_CALIBRATIONS = 9


def calibrate():
    """Milliseconds taken by a fixed piece of pure-Python work that calls no
    gfpipe code: exact rational sums on ints with gcd reduction, small lists
    and a dict, the kind of work the engine's interpreter time is made of."""
    t0 = time.perf_counter()
    table = {}
    num, den = 0, 1
    for i in range(1, 80):
        a, b = i * 3, (i + 1) * (i + 2)
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        num, den = num // g, den // g
        table[i] = [j * i for j in range(8)]
    return (time.perf_counter() - t0) * 1e3


def _setup_calibration():
    return statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))


def _exprs(argvs):
    return [a[1] for a in argvs if a[0] == "eval"]


def _setup(argvs):
    """Import the package and parse every expression; returns (setup_s, import_s)."""
    t0 = time.perf_counter()
    import gfpipe.cli  # noqa: F401
    from gfpipe.dsl import parse
    from gfpipe.errors import ExprError

    t1 = time.perf_counter()
    for expr in _exprs(argvs):
        try:
            parse(expr)
        except ExprError:
            pass
    return time.perf_counter() - t0, t1 - t0


def probe(spawn_wall, path):
    interp_ms = (_STARTED - spawn_wall) * 1e3
    with open(path) as fh:
        argvs = json.load(fh)
    setup_s, import_s = _setup(argvs)
    print(json.dumps({"setup_s": setup_s, "import_ms": import_s * 1e3, "interp_ms": interp_ms,
                      "calibration_ms": _setup_calibration()}))


def _call_inproc(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.cli_main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a defect: keep serving, report the traceback
            traceback.print_exc()
            code = 1
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def _call_cli(argv, env, traced=None):
    if traced is None:
        cmd = [sys.executable, "-m", "gfpipe.cli", *argv]
    else:
        spans, req = traced
        cmd = [sys.executable, os.path.join(HERE, "serve.py"), "child", spans,
               repr(time.time()), str(req), "--", *argv]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, p.returncode, p.stdout, p.stderr


class Passes:
    """Runs passes over the request list, keeping the first pass's outputs
    and flagging any later output that differs from it.  Each request is
    preceded by one ``calibrate``, outside its latency."""

    def __init__(self, argvs):
        self.argvs = argvs
        self.results = None
        self.totals = []
        self.latencies = []
        self.calibrations = []
        self.mismatches = []

    def run(self, call, on_request=None):
        lat, cal, mism, res = [], [], [], []
        t0 = time.perf_counter()
        for i, argv in enumerate(self.argvs):
            cal.append(calibrate())
            if on_request:
                on_request(i)
            dt, code, out, err = call(argv)
            lat.append(dt * 1e3)
            if self.results is None:
                res.append({"code": code, "out": out, "err": err})
            elif (code, out) != (self.results[i]["code"], self.results[i]["out"]):
                mism.append(i)
        self.totals.append(time.perf_counter() - t0)
        if self.results is None:
            self.results = res
        self.latencies.append(lat)
        self.calibrations.append(cal)
        self.mismatches.append(mism)

    def until(self, call, seconds):
        """At least one pass; another only if it should end within ``seconds``."""
        start = time.perf_counter()
        self.run(call)
        while time.perf_counter() - start + statistics.median(self.totals) <= seconds:
            self.run(call)

    def report(self):
        return {
            "passes": self.totals,
            "latencies_ms": self.latencies,
            "calibration_ms": self.calibrations,
            "mismatches": self.mismatches,
            "results": self.results,
        }


def run(path, mode, seconds, spans_path=None):
    with open(path) as fh:
        argvs = json.load(fh)
    out = {}
    passes = Passes(argvs)
    env = dict(os.environ)
    if mode == "inproc":
        out["setup_s"], import_s = _setup(argvs)
        out["setup_calibration_ms"] = _setup_calibration()
        import gfpipe.cli as cli

        def call(argv):
            return _call_inproc(cli, argv)
    else:
        def call(argv):
            return _call_cli(argv, env)

    if spans_path is None:
        passes.until(call, seconds)
        who = resource.RUSAGE_SELF if mode == "inproc" else resource.RUSAGE_CHILDREN
        out["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        out.update(passes.report())
        return out

    sys.path.insert(0, HERE)
    import tracer as tr

    passes.run(call)
    if mode == "inproc":
        # the first in-process pass also warms the interpreter up
        passes.run(call)
        t = tr.Tracer()
        t.install()

        def on_request(i):
            t.request = i

        passes.run(call, on_request)
        counters, spans = t.c, t.spans
        extra = {"cli.import_ms": import_s * 1e3}
    else:
        child_files = []
        spans_dir = os.path.dirname(spans_path)

        def traced_call(argv):
            i = len(child_files)
            child_files.append(os.path.join(spans_dir, f"child-{i}.jsonl"))
            return _call_cli(argv, env, (child_files[-1], i))

        passes.run(traced_call)
        parts, interp, imports = [], [], []
        for f in child_files:
            c, extra_i, spans_i = tr.load(f)
            os.remove(f)
            parts.append((c, spans_i))
            interp.append(extra_i["interp_ms"])
            imports.append(extra_i["import_ms"])
        counters, spans = tr.merge(parts)
        extra = {"cli.interp_ms": statistics.median(interp),
                 "cli.import_ms": statistics.median(imports)}
    tr.dump(spans_path, counters, spans)
    out["layers"] = tr.layer_metrics(counters, spans)
    out["layers"].update(extra)
    out.update(passes.report())
    return out


def child(spans_path, spawn_wall, req, argv):
    interp_ms = (_STARTED - spawn_wall) * 1e3
    t0 = time.perf_counter()
    import gfpipe.cli as cli

    import_ms = (time.perf_counter() - t0) * 1e3
    sys.path.insert(0, HERE)
    import tracer as tr

    t = tr.Tracer()
    t.install()
    t.request = req
    try:
        code = cli.cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tr.dump(spans_path, t.c, t.spans, {"interp_ms": interp_ms, "import_ms": import_ms})
    sys.stdout.flush()
    return code


def main(argv):
    cmd = argv[0]
    if cmd == "probe":
        probe(float(argv[1]), argv[2])
        return 0
    if cmd == "run":
        spans = argv[4] if len(argv) > 4 else None
        json.dump(run(argv[1], argv[2], float(argv[3]), spans), sys.stdout)
        return 0
    if cmd == "child":
        sep = argv.index("--")
        return child(argv[1], float(argv[2]), int(argv[3]), argv[sep + 1:])
    raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
