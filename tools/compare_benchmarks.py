#!/usr/bin/env python3
"""Compare benchmark timing files (google-benchmark JSON or bench-json
JSONL).

Two input formats are auto-detected per file:

* google-benchmark JSON, produced with `--benchmark_out_format=json
  --benchmark_report_aggregates_only=true --benchmark_repetitions=N`.
  Benchmarks are matched by name using the `_median` aggregate
  (falling back to plain entries for single-rep runs).

* bench-json JSONL, produced with `--bench-json <path>` (one record
  per line; see src/support/bench_timer.hpp). Records are grouped by
  their `bench` name; the median `wall_s` of each group is compared.
  In addition, `events_processed` must match EXACTLY between baseline
  and candidate — the simulated workload is deterministic, so any
  difference means the benchmark no longer runs the same work and the
  wall-clock comparison is meaningless (reported as WORKLOAD DRIFT).

The comparison fails when any candidate median exceeds the baseline
by more than --max-regression (a fraction; 0.07 allows +7%). For
bench-json trajectories the committed baseline was recorded on a
different machine, so CI passes a deliberately loose value there; the
robust gate is --assert-speedup, which compares two records of the
SAME candidate file (same machine, same run):

  --assert-speedup macro_campaign_straight:macro_campaign_forked:3.0

asserts that the `macro_campaign_straight` median is at least 3.0x the
`macro_campaign_forked` median, i.e. N storms forked from one
in-memory checkpoint run >= 3x faster than N straight-through runs.

The google-benchmark mode compares two `bench/micro_primitives` runs,
e.g. one build before and one after a change.

Usage:
  tools/compare_benchmarks.py baseline.json candidate.json \
      [--max-regression 0.07] \
      [--assert-speedup SLOW:FAST:MIN_RATIO]
"""

import argparse
import json
import statistics
import sys


def load_google_benchmark(doc):
    out = {}
    for b in doc.get("benchmarks", []):
        name = b["name"]
        if name.endswith("_median"):
            out[name[: -len("_median")]] = {
                "median": b["real_time"],
                "events": None,
                "unit": "ns",
            }
        elif b.get("run_type", "iteration") == "iteration":
            out.setdefault(
                name,
                {"median": b["real_time"], "events": None, "unit": "ns"},
            )
    return out


def load_bench_jsonl(lines):
    walls = {}
    events = {}
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        name = rec["bench"]
        walls.setdefault(name, []).append(float(rec["wall_s"]))
        events.setdefault(name, set()).add(int(rec["events_processed"]))
    out = {}
    for name, values in walls.items():
        out[name] = {
            "median": statistics.median(values),
            "events": events[name],
            "unit": "s",
        }
    return out


def load(path):
    """Return {name: {median, events, unit}} for either format."""
    with open(path) as f:
        text = f.read()
    first = text.lstrip()[:1]
    if first != "{":
        raise SystemExit(f"{path}: not a JSON benchmark file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "benchmarks" in doc:
        return load_google_benchmark(doc)
    # JSONL: one bench-json record per line (a single-record file also
    # parses as `doc` above but has a "bench" key, not "benchmarks").
    return load_bench_jsonl(text.splitlines())


def fmt(entry):
    if entry["unit"] == "s":
        return f"{entry['median'] * 1e3:.1f} ms"
    return f"{entry['median']:.0f} ns"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--max-regression", type=float, default=0.07)
    parser.add_argument(
        "--assert-speedup",
        action="append",
        default=[],
        metavar="SLOW:FAST:MIN_RATIO",
        help="require candidate median of SLOW >= MIN_RATIO x median "
        "of FAST (same-machine speedup gate; may repeat)",
    )
    args = parser.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)
    common = sorted(set(base) & set(cand))
    if not common and not args.assert_speedup:
        print("no common benchmarks between the two files")
        return 1

    failed = False
    for name in common:
        b, c = base[name], cand[name]
        if b["events"] is not None and c["events"] is not None:
            if b["events"] != c["events"]:
                print(
                    f"WORKLOAD DRIFT: {name}: events_processed "
                    f"{sorted(b['events'])} -> {sorted(c['events'])}"
                )
                failed = True
                continue
        ratio = c["median"] / b["median"]
        verdict = "OK"
        if ratio > 1.0 + args.max_regression:
            verdict = "REGRESSION"
            failed = True
        print(
            f"{verdict}: {name}: {fmt(b)} -> {fmt(c)} "
            f"({(ratio - 1.0) * 100.0:+.1f}%)"
        )

    for spec in args.assert_speedup:
        try:
            slow, fast, min_ratio = spec.rsplit(":", 2)
            min_ratio = float(min_ratio)
        except ValueError:
            raise SystemExit(f"bad --assert-speedup spec: {spec}")
        # The gate compares two candidate records, but both names must
        # exist in BOTH files: a record absent from the baseline means
        # the benchmark was renamed or deleted and the gate would
        # otherwise pass vacuously forever.
        missing = [f"{n} ({src})"
                   for src, table in (("baseline", base), ("candidate", cand))
                   for n in (slow, fast) if n not in table]
        if missing:
            print(f"SPEEDUP: missing bench records: {', '.join(missing)}")
            failed = True
            continue
        ratio = cand[slow]["median"] / cand[fast]["median"]
        verdict = "OK" if ratio >= min_ratio else "TOO SLOW"
        if ratio < min_ratio:
            failed = True
        print(
            f"SPEEDUP {verdict}: {fast} is {ratio:.2f}x faster than "
            f"{slow} (required >= {min_ratio:.2f}x)"
        )

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
