#!/usr/bin/env python3
"""The plauscalc benchmark: one closed-loop workload per run.

Usage::

    python3 bench/run.py --workload {field-arith,verify,evidence,all}
                         [--seed N] [--seconds S] [--trace 0|1]

``--workload all`` runs the three workloads one after another, each in its
own process, and ends with one JSON line whose metric names carry the
workload as a prefix.

Run from the repository root (the library is imported from ``src/``).  One
process and one thread act as a single caller that sends the next item only
after the previous one returned.  A run

1. times ``SETUPS`` fresh-process set-ups (import plauscalc, generate the
   inputs from the seed) and reports their median as ``setup_s``;
2. runs one untimed-for-metrics first pass over all items and checks every
   verdict against :mod:`oracle`, and the sha256 of all output lines against
   the pinned digest in ``digests.json`` where one exists for the seed;
3. with ``--trace 0``, repeats the same pass for about ``--seconds`` and
   reports the end-to-end metrics from each item's fastest time over those
   passes; every output must equal the first pass;
4. with ``--trace 1``, alternates untraced and traced passes instead and
   reports the per-layer metrics of :mod:`spans`.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong verdict,
changed output, unexpected exception or count that does not repeat makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 7
TAIL_BEYOND = 10  # items beyond the tail percentile
HOST_REPS = 5

sys.path.insert(0, str(HERE))
import gen  # noqa: E402

E2E_UNITS = {
    "throughput_items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply the item counts (the self-test uses a tiny scale)")
    p.add_argument("--inject-wrong", action="store_true",
                   help="self-test hook: flip every order verdict of the library")
    return p.parse_args(argv)


def measure_setup(args) -> tuple[float, set]:
    """Median fresh-process set-up time and the input digests the probes saw."""
    times, digests = [], set()
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
           repr(args.scale)]
    for _ in range(SETUPS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        digests.add(probe["inputs_sha256"])
    return statistics.median(times), digests


def import_library():
    sys.path.insert(0, str(SRC))
    import plauscalc

    where = Path(plauscalc.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: imported plauscalc from {where}, not from {SRC}")
    import workloads

    return workloads


def inject_wrong_verdicts() -> None:
    from plauscalc.epsnum import EpsRational

    compare = EpsRational.compare
    EpsRational.compare = lambda self, other: -compare(self, other)


def host_speed() -> float:
    """Milliseconds for a fixed pure-Python loop: shows host speed drift."""
    times = []
    for _ in range(HOST_REPS):
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def run_pass(items, reference=None, rec=None):
    """One closed-loop pass: per-item seconds, outputs, failures, wall time."""
    times = [0.0] * len(items)
    outputs, failures = [], []
    start = perf_counter()
    for i, item in enumerate(items):
        if rec is not None:
            rec.item = i
        t0 = perf_counter()
        try:
            lines, payload = item.run()
        except Exception as exc:  # an unexpected exception is a failed item
            lines, payload = [f"UNEXPECTED {type(exc).__name__}: {exc}"], None
        times[i] = perf_counter() - t0
        if reference is None:
            outputs.append((lines, payload))
        elif lines != reference[i]:
            failures.append((i, "output differs from the first pass"))
    return times, outputs, failures, perf_counter() - start


def check_first_pass(items, outputs):
    failures = []
    for i, (item, (lines, payload)) in enumerate(zip(items, outputs)):
        if lines and lines[0].startswith("UNEXPECTED "):
            failures.append((i, lines[0]))
            continue
        try:
            problem = item.check(lines, payload)
        except Exception as exc:  # a reference that cannot read the output
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append((i, problem))
    return failures


def output_digest(outputs) -> str:
    h = hashlib.sha256()
    for lines, _ in outputs:
        for line in lines:
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


def tail_rank(n: int) -> tuple[int, float]:
    """0-based rank and percentile with TAIL_BEYOND items beyond it."""
    rank = max(0, n - TAIL_BEYOND - 1)
    return rank, 100.0 * (rank + 1) / n


def kind_table(items, per_item):
    by_kind: dict[str, list] = {}
    for item, t in zip(items, per_item):
        by_kind.setdefault(item.kind, []).append(t)
    total = sum(per_item)
    for kind, ts in sorted(by_kind.items()):
        print(f"  {kind:<22} {len(ts):>5} items  median {statistics.median(ts) * 1e3:9.3f} ms"
              f"  share {sum(ts) / total:6.1%}")


def run_all(argv) -> int:
    """Each workload in its own process; one combined JSON line at the end."""
    rest = [a for a in argv if a != "all" and not a.startswith("--workload")]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in gen.WORKLOADS:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w, *rest],
                              capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{w}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "plauscalc" / "__init__.py").is_file():
        print(f"bench: no plauscalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(argv)
    setup_s, probe_digests = measure_setup(args)
    workloads = import_library()
    if args.inject_wrong:
        inject_wrong_verdicts()
    raw = gen.generate(args.workload, args.seed, args.scale)
    inputs_sha = gen.digest(raw)
    OUT.mkdir(exist_ok=True)
    lib = workloads.Lib()
    items = workloads.build(args.workload, lib, raw, OUT / f"{args.workload}-s{args.seed}")
    n = len(items)

    host_before = host_speed()
    problems = []
    if probe_digests != {inputs_sha}:
        problems.append("inputs differ between processes for the same seed")
    _, outputs, _, first_wall = run_pass(items)
    t0 = perf_counter()
    failures = check_first_pass(items, outputs)
    check_s = perf_counter() - t0
    digest = output_digest(outputs)
    pinned = json.loads((HERE / "digests.json").read_text()).get(
        f"{args.workload}/{args.seed}/{args.scale:g}")
    if pinned is not None and pinned != digest:
        problems.append(f"output digest {digest} != pinned {pinned}")
    reference = [lines for lines, _ in outputs]
    del outputs

    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale:g}  "
          f"items/pass {n}  first pass {first_wall:.2f} s  checks {check_s:.2f} s")
    print(f"inputs sha256 {inputs_sha}")
    print(f"output sha256 {digest} "
          f"({'pinned: ' + ('match' if pinned == digest else 'MISMATCH') if pinned else 'not pinned for this seed'})")

    attempted = n
    if args.trace:
        metrics, more_failures, more_problems, runs = traced_passes(args, items, reference, first_wall)
        problems += more_problems
    else:
        metrics, more_failures, runs = timed_passes(args, items, reference, first_wall, setup_s)
    attempted += runs
    failures += more_failures
    print(f"host speed: {host_before:.1f} ms before, {host_speed():.1f} ms after "
          f"(median of {HOST_REPS} runs of a fixed pure-Python loop; context only)")

    for i, why in failures[:20]:
        print(f"FAILED item {i} ({items[i].kind}): {why}")
    for why in problems:
        print(f"FAILED run: {why}")
    failed = len(failures)
    correct = failed == 0 and not problems
    print(f"failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} item runs)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def passes_for(seconds: float, pass_s: float, minimum: int) -> int:
    return max(minimum, round(seconds / max(pass_s, 1e-6)))


def timed_passes(args, items, reference, first_wall, setup_s):
    n = len(items)
    per_item = [[] for _ in range(n)]
    walls, failures = [], []
    for _ in range(passes_for(args.seconds, first_wall, 1)):
        times, _, fails, wall = run_pass(items, reference)
        for i, t in enumerate(times):
            per_item[i].append(t)
        walls.append(wall)
        failures += fails
    # An item does the same work on every pass, so its slower passes measure
    # interference from other processes on the host, not the program: an
    # item's latency is its fastest pass.
    best = [min(ts) for ts in per_item]
    ranked = sorted(best)
    rank, pct = tail_rank(n)
    metrics = {
        "throughput_items_per_s": (n / sum(best), "1/s"),
        "item_p50_ms": (statistics.median(ranked) * 1e3, "ms"),
        "item_tail_ms": (ranked[rank] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{len(walls)} timed passes, {sum(walls):.2f} s, median pass {statistics.median(walls):.2f} s;"
          f" per item: fastest pass")
    kind_table(items, best)
    notes = {
        "throughput_items_per_s": f"{n} items / sum of per-item latencies",
        "item_tail_ms": f"p{pct:.1f}: {TAIL_BEYOND} of {n} items beyond it",
        "setup_s": f"median of {SETUPS} fresh-process set-ups",
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<24} = {value:.6g} {unit}   {notes.get(name, '')}")
    return metrics, failures, n * len(walls)


def traced_passes(args, items, reference, first_wall):
    import plauscalc
    import spans

    modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
               if name.startswith("plauscalc.")}
    modules["plauscalc"] = plauscalc
    rec = spans.Recorder()
    failures, problems = [], []
    untraced, traced, per_pass = [], [], []
    pairs = passes_for(args.seconds, 3 * first_wall, 2)
    spans_file = OUT / f"spans-{args.workload}-s{args.seed}.bin"
    for p in range(pairs):
        _, _, fails, wall = run_pass(items, reference)
        untraced.append(wall)
        failures += fails
        rec.reset()
        rec.keep_spans = p == 0
        rec.install(modules)
        try:
            _, _, fails, wall = run_pass(items, reference, rec)
        finally:
            rec.uninstall()
        traced.append(wall)
        failures += fails
        per_pass.append(spans.layer_metrics(rec))
        if p == 0:
            kept = rec.write(spans_file)
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("op counts differ between traced passes")
    metrics = {}
    for name, value in per_pass[0].items():
        if name.endswith("_s"):
            value = min(m[name] for m in per_pass)  # fastest pass, as for items
        metrics[name] = (value, unit_of(name))
    metrics["trace.overhead_ratio"] = (min(traced) / min(untraced), "ratio")
    print(f"{pairs} untraced + {pairs} traced passes; {kept} spans of the first traced pass "
          f"in {spans_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} = {value:.6g} {unit}")
    return metrics, failures, problems, 2 * pairs * len(items)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_per_op", "_per_frac_add")):
        return "ratio"
    if name.endswith("max_degree"):
        return "degree"
    if name.endswith("max_coeff_bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
