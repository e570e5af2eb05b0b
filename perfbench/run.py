"""gfpipe benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout (the package is used from ``src/``):

  python3 perfbench/run.py --workload qr_series --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload q_fractions --quick      # local check only

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes untraced passes, then one traced pass, and reports the
per-layer metrics.  Every output is checked against an independent
reference after the timed region.  Timings are scaled to a reference host
speed by an interleaved calibration (``scaled``).  The human-readable
report goes to stdout first; the last line is the JSON result.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SERVE = os.path.join(HERE, "serve.py")
OUT_DIR = os.path.join(HERE, "out")

DEFAULT_SEED = 1
SETUP_PROBES = 9
SERVE_TIMEOUT_S = 170
# Timings are reported as if ``serve.calibrate`` took this long; a request's
# latency is scaled by the median calibration of the requests around it.
REFERENCE_CALIBRATION_MS = 0.15
CALIBRATION_WINDOW = 4  # requests on each side


def _spawn(args, env, timeout):
    p = subprocess.run([sys.executable, SERVE, *args], capture_output=True, text=True,
                       env=env, timeout=timeout)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"serving process failed with exit code {p.returncode}")
    return json.loads(p.stdout)


def _check(req, res, expected_cache, reference):
    """None if the request's result is right, else the reason."""
    if "Traceback (most recent call last)" in res["err"]:
        return "Python traceback on stderr"
    if res["code"] != req.code:
        return f"exit code {res['code']}, expected {req.code}: {res['err'].strip()[:200]}"
    if req.code != 0:
        return None if "error:" in res["err"] else "no diagnostic on stderr"
    if req.kind == "report":
        return _check_report(req, res["out"])
    key = tuple(a for a in req.argv if a not in ("--format", req.fmt))
    if key not in expected_cache:
        expected_cache[key] = req.expect()
    return reference.check_value(req.kind, req.fmt, res["out"], expected_cache[key], req.prefix)


def _check_report(req, out):
    fid = req.fixture
    try:
        if req.fmt == "json":
            ok = [c["passed"] for c in json.loads(out)["cases"] if c["id"] == fid] == [True]
        else:
            first = out.splitlines()[0]
            ok = first.startswith(f"{fid},PASS,") if req.fmt == "csv" else first == f"PASS  {fid}"
    except (ValueError, KeyError, IndexError, TypeError):
        ok = False
    return None if ok and "1/1 fixtures passed" in out else f"fixture {fid} not reported as passed"


def scaled(times, calibrations):
    """Each time scaled to the reference speed by the median calibration of
    the CALIBRATION_WINDOW measurements on each side of it.  The host's CPU
    speed drifts by tens of percent over seconds to minutes, and the same
    drift slows the calibration, so the ratio cancels it; the program's own
    speed does not enter the calibration."""
    k = CALIBRATION_WINDOW
    return [t * REFERENCE_CALIBRATION_MS / statistics.median(calibrations[max(0, i - k):i + k + 1])
            for i, t in enumerate(times)]


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("qr_series", "q_fractions", "cli_roundtrip"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small request lists for local checks; never for claims")
    args = ap.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (3 if args.quick else 30)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gfpipe", "__init__.py")):
        print(f"error: no gfpipe package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import reference
    import workloads

    fixtures = ()
    if args.workload == "cli_roundtrip":
        from gfpipe.fixtures import all_fixtures

        fixtures = all_fixtures()
    reqs = workloads.build(args.workload, args.seed, args.quick, fixtures)

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    os.makedirs(OUT_DIR, exist_ok=True)
    req_path = os.path.join(OUT_DIR, f"requests-{args.workload}.json")
    with open(req_path, "w") as fh:
        json.dump([r.argv for r in reqs], fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    probes = [_spawn(["probe", repr(time.time()), req_path], env, 60)
              for _ in range(SETUP_PROBES)]
    mode = "cli" if args.workload == "cli_roundtrip" else "inproc"
    run_args = ["run", req_path, mode, str(seconds)]
    if args.trace:
        run_args.append(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"))
    res = _spawn(run_args, env, SERVE_TIMEOUT_S)

    # -- correctness, outside the timed region --------------------------------------
    cache = {}
    reasons = [_check(r, out, cache, reference) for r, out in zip(reqs, res["results"])]
    n_passes = len(res["passes"])
    attempted = n_passes * len(reqs)
    first_pass = [bool(x) for x in reasons]
    failed = n_passes * sum(first_pass)
    for p, mism in enumerate(res["mismatches"]):
        for i in mism:
            if not first_pass[i]:
                failed += 1
                reasons[i] = reasons[i] or f"output of pass {p + 1} differs from pass 1"

    raw = [v for pass_lat in res["latencies_ms"] for v in pass_lat]
    cal = [v for pass_cal in res["calibration_ms"] for v in pass_cal]
    lat = scaled(raw, cal)
    per_pass = len(reqs)
    totals = [sum(lat[i:i + per_pass]) / 1e3 for i in range(0, len(lat), per_pass)]
    print(f"workload {args.workload}  seed {args.seed}  requests {len(reqs)}  "
          f"passes {n_passes}  trace {args.trace}{'  QUICK' if args.quick else ''}")
    if args.trace:
        layers = res["layers"]
        if mode == "inproc":
            layers["cli.interp_ms"] = statistics.median(p["interp_ms"] for p in probes)
        layers["trace.overhead_frac"] = totals[-1] / totals[-2] - 1
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(layers.items())}
    else:
        setups = [(p["setup_s"], p["calibration_ms"]) for p in probes]
        if "setup_s" in res:
            setups.append((res["setup_s"], res["setup_calibration_ms"]))
        values = {
            "setup_s": statistics.median(s * REFERENCE_CALIBRATION_MS / c for s, c in setups),
            "total_s": statistics.median(totals),
            "req_p50_ms": statistics.median(lat),
            "req_p90_ms": _quantile(lat, 90),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for k, m in metrics.items():
        print(f"  {k:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"  unscaled: request p50 {statistics.median(raw):.6g} ms, p90 {_quantile(raw, 90):.6g} ms; "
          f"calibration median {statistics.median(cal):.4g} ms "
          f"(reference {REFERENCE_CALIBRATION_MS} ms)")
    print(f"  {'fail_frac':<32} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} requests; latency samples n={len(lat)})")
    for r, why in zip(reqs, reasons):
        if why:
            print(f"  FAIL {r.family}: {' '.join(r.argv)}: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
