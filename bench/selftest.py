#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale; run from the repository root.

    python3 bench/selftest.py

For every workload it checks that

* an untraced run passes and prints every end-to-end metric of
  BENCHMARK.json by name with its unit, in the text and in the JSON line;
* two traced runs (under different string-hash seeds) print every per-layer
  metric with its unit, give identical op counts, and give the same output
  digest as the untraced run;
* a run whose library gives wrong order verdicts exits non-zero and counts
  the failed items.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["--scale", "0.05", "--seconds", "0.5", "--seed", "7"]


def run(workload: str, *extra: str, hashseed: str = "0"):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, *TINY, *extra]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, env=env)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, lines, result


def digest_line(lines):
    return next(l for l in lines if l.startswith("output sha256 ")).split()[2]


def check_metrics(where, lines, result, spec_metrics, problems):
    text = "\n".join(lines[:-1])
    names = [m["name"] for m in spec_metrics]
    if sorted(result["metrics"]) != sorted(names):
        problems.append(f"{where}: JSON metrics {list(result['metrics'])} != {names}")
    for m in spec_metrics:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        if f"{m['name']} " not in text or f" {m['unit']}" not in text:
            problems.append(f"{where}: {m['name']} not printed with its unit")


def main() -> int:
    problems: list[str] = []
    for w in (x["name"] for x in SPEC["workloads"]):
        code, lines, result = run(w)
        if code != 0 or not result or not result["correct"]:
            problems.append(f"{w}: untraced run failed (exit {code})")
            continue
        check_metrics(f"{w} untraced", lines, result, SPEC["end_to_end"], problems)
        if "failed_ratio = 0 ratio" not in "\n".join(lines):
            problems.append(f"{w}: failed_ratio not printed")
        digest = digest_line(lines)

        counts = []
        for hashseed in ("1", "2"):
            code, tlines, tresult = run(w, "--trace", "1", hashseed=hashseed)
            if code != 0 or not tresult or not tresult["correct"]:
                problems.append(f"{w}: traced run failed (exit {code})")
                break
            check_metrics(f"{w} traced", tlines, tresult, SPEC["per_layer"], problems)
            if digest_line(tlines) != digest:
                problems.append(f"{w}: traced output digest differs from untraced")
            counts.append({k: v["value"] for k, v in tresult["metrics"].items()
                           if v["unit"] != "s" and k != "trace.overhead_ratio"})
        if len(counts) == 2 and counts[0] != counts[1]:
            problems.append(f"{w}: op counts differ between traced runs")

        code, lines, result = run(w, "--inject-wrong")
        if code == 0 or not result or result["correct"] or result["failed"] < 1:
            problems.append(f"{w}: injected wrong verdicts were not caught")
        print(f"{w}: checked", flush=True)

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
