#!/usr/bin/env python3
"""Validate and compare BENCH_<name>.json perf-trajectory records.

Stdlib only; runs on any python3. Three modes:

  compare_bench.py validate [--expect-zero-counters] FILE...
      Schema-check one or more bench JSON files. Fails on schema drift
      (unknown schema_version), an empty records array (a bench that
      silently stopped measuring), malformed metrics/counters, or
      duplicate record labels. --expect-zero-counters additionally
      requires every counter to be zero — the MEMBQ_TELEMETRY=OFF
      contract made machine-checkable.

  compare_bench.py compare BASELINE CURRENT [--band RATIO]
      Trajectory gate: every record label in BASELINE must still exist
      in CURRENT, and every shared throughput-like metric must stay
      within [1/RATIO, RATIO] of the baseline value. The default band is
      deliberately wide (16x) because committed baselines come from the
      development container while CI runs on arbitrary shared runners —
      the gate catches order-of-magnitude regressions and dead benches,
      not single-digit-percent noise.

  compare_bench.py --self-test
      Run the built-in fixture suite (used by ctest and CI).

Exit codes: 0 ok, 1 gate/validation failure, 2 usage error.
"""

import argparse
import json
import math
import sys

SUPPORTED_SCHEMA_VERSIONS = (1,)

# Metrics whose current/baseline ratio is gated by `compare`. Everything
# else (byte counts, percentiles, state counts) is carried along for
# humans and trend tooling but not gated: latency on a shared runner is
# far noisier than throughput, and E9's byte counts are checked exactly
# by its golden (bench/golden/memory_overhead.txt).
GATED_METRICS = ("mops",)

ENVELOPE_KEYS = ("schema_version", "bench", "build", "config", "records")
BUILD_KEYS = ("git_sha", "git_dirty", "compiler", "build_type", "telemetry",
              "seqcst_rings", "fence_policy")
RECORD_KEYS = ("label", "params", "metrics", "counters")


class ValidationError(Exception):
    pass


def _fail(path, msg):
    raise ValidationError("%s: %s" % (path, msg))


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        _fail(path, "cannot read: %s" % e)
    except json.JSONDecodeError as e:
        _fail(path, "not valid JSON: %s" % e)


def validate_doc(doc, path="<doc>", expect_zero_counters=False):
    if not isinstance(doc, dict):
        _fail(path, "top level must be an object")
    for k in ENVELOPE_KEYS:
        if k not in doc:
            _fail(path, "missing envelope key %r" % k)
    if doc["schema_version"] not in SUPPORTED_SCHEMA_VERSIONS:
        _fail(path, "schema drift: version %r not in supported %r — "
                    "update compare_bench.py and the committed baselines "
                    "together" % (doc["schema_version"],
                                  SUPPORTED_SCHEMA_VERSIONS))
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        _fail(path, "'bench' must be a non-empty string")
    build = doc["build"]
    if not isinstance(build, dict):
        _fail(path, "'build' must be an object")
    for k in BUILD_KEYS:
        if k not in build:
            _fail(path, "missing build key %r" % k)
    records = doc["records"]
    if not isinstance(records, list):
        _fail(path, "'records' must be an array")
    if not records:
        _fail(path, "zero records: the bench ran but measured nothing")
    seen = set()
    for i, rec in enumerate(records):
        where = "%s records[%d]" % (path, i)
        if not isinstance(rec, dict):
            _fail(where, "must be an object")
        for k in RECORD_KEYS:
            if k not in rec:
                _fail(where, "missing key %r" % k)
        label = rec["label"]
        if not isinstance(label, str) or not label:
            _fail(where, "label must be a non-empty string")
        if label in seen:
            _fail(where, "duplicate label %r" % label)
        seen.add(label)
        metrics = rec["metrics"]
        if not isinstance(metrics, dict):
            _fail(where, "metrics must be an object")
        for name, v in metrics.items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                _fail(where, "metric %r is not a number" % name)
            if isinstance(v, float) and not math.isfinite(v):
                _fail(where, "metric %r is not finite" % name)
        counters = rec["counters"]
        if not isinstance(counters, dict):
            _fail(where, "counters must be an object")
        for name, v in counters.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                _fail(where, "counter %r must be a non-negative integer"
                      % name)
            if expect_zero_counters and v != 0:
                _fail(where, "counter %r is %d but --expect-zero-counters "
                             "was given (MEMBQ_TELEMETRY=OFF build leaked "
                             "an increment)" % (name, v))
    return True


def compare_docs(base, cur, band, base_path="<baseline>", cur_path="<current>"):
    """Returns a list of failure strings (empty == gate passes)."""
    failures = []
    if base["schema_version"] != cur["schema_version"]:
        failures.append("schema drift: baseline v%r vs current v%r" %
                        (base["schema_version"], cur["schema_version"]))
        return failures
    if base["bench"] != cur["bench"]:
        failures.append("bench name mismatch: %r vs %r" %
                        (base["bench"], cur["bench"]))
        return failures
    cur_by_label = {r["label"]: r for r in cur["records"]}
    for rec in base["records"]:
        label = rec["label"]
        cur_rec = cur_by_label.get(label)
        if cur_rec is None:
            failures.append("record %r present in %s but missing from %s" %
                            (label, base_path, cur_path))
            continue
        for metric in GATED_METRICS:
            if metric not in rec["metrics"]:
                continue
            b = float(rec["metrics"][metric])
            if metric not in cur_rec["metrics"]:
                failures.append("%s: metric %r dropped" % (label, metric))
                continue
            c = float(cur_rec["metrics"][metric])
            if b <= 0.0:
                continue  # nothing to ratio against
            ratio = c / b
            if ratio < 1.0 / band or ratio > band:
                failures.append(
                    "%s: %s moved %.3gx (baseline %.4g, current %.4g, "
                    "allowed band 1/%g..%gx)" %
                    (label, metric, ratio, b, c, band, band))
    new = [l for l in cur_by_label if l not in
           {r["label"] for r in base["records"]}]
    for l in sorted(new):
        print("note: new record %r (not in baseline; not gated)" % l)
    return failures


# ---- self-test ------------------------------------------------------------

def _doc(records, schema=1, bench="demo"):
    return {
        "schema_version": schema,
        "bench": bench,
        "build": {"git_sha": "abc", "git_dirty": False, "compiler": "x",
                  "build_type": "RelWithDebInfo", "telemetry": True,
                  "seqcst_rings": False, "fence_policy": "acq-rel"},
        "config": {"short": True},
        "records": records,
    }


def _rec(label, mops=1.0, counters=None):
    return {"label": label, "params": {}, "metrics": {"mops": mops},
            "counters": counters if counters is not None else {"cas_fail": 0}}


def self_test():
    def expect_ok(doc, **kw):
        validate_doc(doc, "<fixture>", **kw)

    def expect_bad(doc, needle, **kw):
        try:
            validate_doc(doc, "<fixture>", **kw)
        except ValidationError as e:
            assert needle in str(e), (needle, str(e))
            return
        raise AssertionError("expected failure containing %r" % needle)

    expect_ok(_doc([_rec("a"), _rec("b")]))
    expect_bad(_doc([]), "zero records")
    expect_bad(_doc([_rec("a"), _rec("a")]), "duplicate label")
    expect_bad(_doc([_rec("a")], schema=99), "schema drift")
    expect_bad({"bench": "x"}, "missing envelope key")
    bad_metric = _doc([_rec("a")])
    bad_metric["records"][0]["metrics"]["mops"] = float("inf")
    expect_bad(bad_metric, "not finite")
    bad_counter = _doc([_rec("a", counters={"cas_fail": -1})])
    expect_bad(bad_counter, "non-negative")
    expect_ok(_doc([_rec("a", counters={"cas_fail": 0})]),
              expect_zero_counters=True)
    expect_bad(_doc([_rec("a", counters={"cas_fail": 3})]),
               "--expect-zero-counters", expect_zero_counters=True)

    base = _doc([_rec("a", mops=10.0), _rec("b", mops=5.0)])
    same = _doc([_rec("a", mops=12.0), _rec("b", mops=4.0)])
    assert compare_docs(base, same, band=16.0) == []
    slow = _doc([_rec("a", mops=10.0 / 64.0), _rec("b", mops=5.0)])
    fails = compare_docs(base, slow, band=16.0)
    assert len(fails) == 1 and "moved" in fails[0], fails
    missing = _doc([_rec("a", mops=10.0)])
    fails = compare_docs(base, missing, band=16.0)
    assert len(fails) == 1 and "missing" in fails[0], fails
    drift = _doc([_rec("a")], schema=2)
    drift["schema_version"] = 2  # bypass validate; compare must still catch
    fails = compare_docs(base, drift, band=16.0)
    assert len(fails) == 1 and "schema drift" in fails[0], fails
    print("self-test: ok")
    return 0


# ---- CLI ------------------------------------------------------------------

def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in fixture suite and exit")
    sub = ap.add_subparsers(dest="cmd")

    v = sub.add_parser("validate", help="schema-check bench JSON files")
    v.add_argument("files", nargs="+")
    v.add_argument("--expect-zero-counters", action="store_true",
                   help="fail if any counter is nonzero (telemetry-OFF "
                        "builds must report nothing)")

    c = sub.add_parser("compare", help="gate CURRENT against BASELINE")
    c.add_argument("baseline")
    c.add_argument("current")
    c.add_argument("--band", type=float, default=16.0,
                   help="allowed throughput ratio band [1/BAND, BAND] "
                        "(default: %(default)s)")

    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.cmd == "validate":
        try:
            for path in args.files:
                validate_doc(load(path), path,
                             expect_zero_counters=args.expect_zero_counters)
                print("ok: %s" % path)
        except ValidationError as e:
            print("FAIL: %s" % e, file=sys.stderr)
            return 1
        return 0
    if args.cmd == "compare":
        try:
            base = load(args.baseline)
            cur = load(args.current)
            validate_doc(base, args.baseline)
            validate_doc(cur, args.current)
        except ValidationError as e:
            print("FAIL: %s" % e, file=sys.stderr)
            return 1
        if args.band <= 1.0:
            print("FAIL: --band must be > 1", file=sys.stderr)
            return 2
        failures = compare_docs(base, cur, args.band,
                                args.baseline, args.current)
        for f in failures:
            print("FAIL: %s" % f, file=sys.stderr)
        if failures:
            return 1
        print("ok: %d baseline records held within 1/%g..%gx" %
              (len(base["records"]), args.band, args.band))
        return 0
    ap.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
