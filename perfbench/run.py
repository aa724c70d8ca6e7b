"""Benchmark of convex-enclose: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds; with ``--trace 1`` it replays a fixed prefix of the
same seeded stream twice traced (spans and exact counters, see tracing.py)
and once untraced in between, and reports the per-layer metrics.  Every output is
checked against an independent reference after the timed region
(checks.py).  ``--workload all`` runs every workload both ways, one
process each, and prints every metric with its unit and sample count.

Times are CPU time of the measuring thread (``time.thread_time``; for
cold starts, the child's user + system time), scaled to a reference
machine speed by a probe run between short blocks of operations (see
speed.py).  The program is single-threaded and does no I/O here (stdout
is captured in memory), so on an idle machine CPU time equals wall time;
on shared vCPUs wall time also counts time stolen by other guests, which
on a 2-vCPU virtual machine reached half of every second for a second at
a time, and CPU time itself swung by up to 1.8x within a minute.  Raw
wall-clock p50/p90 and set-up time are still reported beside the metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report (seed, input digest, sample counts, failure classes).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import probe, scale
from tracing import Tracer, exact_counts, layer_metrics
from workloads import known_crashes, load_program, run_op, stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("cli_mix", "integrate_tight", "divergence_batch")
# Operations replayed by a traced run: a fixed prefix of the stream, so that
# two traced runs of one seed count exactly the same work.
TRACE_OPS = {"cli_mix": 160, "integrate_tight": 60, "divergence_batch": 1200}
SETUP_STARTS = 9
SETUP_SEED = 0
# CPU time of a block of timed operations between two speed probes
BLOCK_S = 0.1


def _percentile(values, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    i = int(pos)
    if i + 1 >= len(xs):
        return xs[-1]
    return xs[i] + (xs[i + 1] - xs[i]) * (pos - i)


def _digest(items) -> str:
    """Digest of generated specs (or counts); pickle keeps it fast for
    divergence_batch, whose specs hold up to 2048 floats each."""
    h = hashlib.sha256()
    for item in items:
        h.update(pickle.dumps(item, protocol=4))
    return h.hexdigest()[:16]


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_starts(workload, spec, starts):
    """Median set-up cost of ``starts`` fresh interpreters, after one discarded
    start that warms the bytecode cache.  Starts run one at a time, so the
    CPU time of waited-for children is that of the one start.  A probe
    next to a process start is itself disturbed, so the medians are scaled
    by the median of the speed probes run between the starts: the phase
    lasts a few seconds, shorter than the machine's swings in speed."""
    cmd = [sys.executable, str(HERE / "coldstart.py"), str(SRC), workload]
    payload = json.dumps(spec)
    cpu, wall, interpreter, imports = [], [], [], []
    probes = [probe() for _ in range(4)]
    for i in range(starts + 1):
        c0, t0 = _children_cpu(), time.perf_counter()
        proc = subprocess.run(cmd, input=payload, capture_output=True, text=True, timeout=150)
        t1, c1 = time.perf_counter(), _children_cpu()
        probes += [probe() for _ in range(4)]
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{proc.stderr}")
        stamps = json.loads(proc.stdout.strip().splitlines()[-1])
        if i == 0:
            continue
        cpu.append(c1 - c0)
        wall.append(t1 - t0)
        interpreter.append(stamps["start"])
        imports.append(stamps["imported"] - stamps["read"])
    k = scale(*probes)
    return {
        "setup_s": (k * statistics.median(cpu), "s", starts),
        "setup.interpreter_ms": (1e3 * k * statistics.median(interpreter), "ms", starts),
        "setup.import_ms": (1e3 * k * statistics.median(imports), "ms", starts),
    }, statistics.median(wall)


def _warm_up(lib, workload, seed):
    """The first deck of a separate stream, so lazy set-up is not timed.
    Every category of operation runs, and the amount of work is fixed."""
    done = []
    for deck, spec in stream(workload, seed, salt="warmup"):
        if deck:
            return done
        done.append((spec, run_op(lib, spec)))


def _check_all(lib, results):
    """(failed count, {class: count}, {category: count}) over (spec, outcome)."""
    from checks import check  # imports mpmath and numpy: not before peak RSS is read

    failed = 0
    by_class, by_category = {}, {}
    for spec, outcome in results:
        fails = check(lib, spec, outcome)
        if fails:
            failed += 1
            cat = spec.get("category", spec.get("family", spec["kind"]))
            by_category[cat] = by_category.get(cat, 0) + 1
            for f in set(fails):
                by_class[f] = by_class.get(f, 0) + 1
    return failed, by_class, by_category


def measure(lib, workload, seed, seconds, max_ops=None):
    """End-to-end metrics of one untraced run."""
    warm = _warm_up(lib, workload, seed)
    # read after import and one warm-up deck, a fixed amount of work: the
    # benchmark's own records of the timed loop grow with machine speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.collect()
    latencies, walls, outcomes, block = [], [], [], []
    decks = 0
    cpu, wall = time.thread_time, time.perf_counter
    deadline = wall() + seconds
    before = probe()
    for deck, spec in stream(workload, seed):
        t0, c0 = wall(), cpu()
        outcome = run_op(lib, spec)
        c1, t1 = cpu(), wall()
        block.append(c1 - c0)
        walls.append(t1 - t0)
        outcomes.append(outcome)
        decks = deck + 1
        last = t1 >= deadline or (max_ops is not None and len(outcomes) >= max_ops)
        if last or math.fsum(block) >= BLOCK_S:
            after = probe()
            k = scale(before, after)
            latencies.extend(k * x for x in block)
            before, block = after, []
        if last:
            break

    # the stream is deterministic, so the specs are regenerated for checking
    # instead of being held during the timed loop
    results = list(zip((spec for _, spec in stream(workload, seed)), outcomes))
    failed, by_class, by_category = _check_all(lib, warm + results)
    attempted = len(warm) + len(results)
    n = len(latencies)
    metrics = {
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms", n),
        "latency_p90_ms": (1e3 * _percentile(latencies, 0.9), "ms", n),
        "ops_per_s": (n / math.fsum(latencies), "1/s", n),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    report = {"inputs_digest": _digest(s for s, _ in results), "decks": decks,
              "wall_latency_p50_ms": 1e3 * statistics.median(walls),
              "wall_latency_p90_ms": 1e3 * _percentile(walls, 0.9),
              "failed_frac": failed / attempted, "failure_classes": by_class,
              "failed_categories": by_category}
    if workload == "cli_mix":
        # ROADMAP D crash classes: one per deck, run outside the timed stream
        crashes = [(s, run_op(lib, s)) for s in known_crashes(seed, decks)]
        k_failed, k_class, k_cat = _check_all(lib, crashes)
        report["known_defects"] = {"attempted": len(crashes), "failed": k_failed,
                                   "failure_classes": k_class, "categories": k_cat}
        report["failed_frac_incl_known_defects"] = \
            (failed + k_failed) / (attempted + len(crashes))
    return metrics, attempted, failed, report


def replay(lib, workload, seed, max_ops=None):
    """Per-layer metrics: a fixed prefix of the stream traced twice, with an
    untraced pass between the two for the tracing overhead.  Per-layer times
    are scaled by the speed probes around the two compared passes; the
    overhead is a ratio of their times and needs no scaling."""
    from checks import certificates

    count = TRACE_OPS[workload] if max_ops is None else max_ops
    specs = []
    for _, spec in stream(workload, seed):
        specs.append(spec)
        if len(specs) >= count:
            break
    warm = _warm_up(lib, workload, seed)

    def traced_pass():
        tracer = Tracer()
        gc.collect()
        with tracer.installed(lib):
            outcomes = [tracer.run_request(i, run_op, lib, spec) for i, spec in enumerate(specs)]
        return tracer, outcomes

    # the first traced pass also warms every path, so the untraced pass and
    # the second traced pass, whose times are compared, start equally warm
    first, first_out = traced_pass()
    gc.collect()
    cpu = time.thread_time
    untraced, untraced_s = [], 0.0
    p0 = probe()
    for spec in specs:
        t0 = cpu()
        untraced.append(run_op(lib, spec))
        untraced_s += cpu() - t0
    p1 = probe()
    second, second_out = traced_pass()
    k = scale(p0, p1, probe())
    traced_s = math.fsum(s.duration for s in second.spans if s.name == "op")

    results = list(zip(specs, untraced))
    failed, by_class, by_category = _check_all(lib, warm + results)
    mismatched = 0
    for spec, u, t1, t2 in zip(specs, untraced, first_out, second_out):
        ref = certificates(spec, u)
        if certificates(spec, t1) != ref or certificates(spec, t2) != ref:
            mismatched += 1
    if mismatched:
        failed += mismatched
        by_class["trace_mismatch"] = mismatched
    counts = exact_counts(second)
    deterministic = exact_counts(first) == counts

    metrics = {name: (v * k if unit in ("ms", "us") else v, unit, n)
               for name, (v, unit, n) in layer_metrics(second).items()}
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio", len(specs))
    report = {"inputs_digest": _digest(specs), "counts": counts,
              "counts_digest": _digest([counts]), "counts_deterministic": deterministic,
              "failed_frac": failed / (len(warm) + len(specs)),
              "failure_classes": by_class, "failed_categories": by_category}
    return metrics, len(warm) + len(specs), failed, deterministic, report


def run_workload(workload, seed, seconds, trace, max_ops=None, setup_starts=SETUP_STARTS):
    """(report, result line) of one run; see the module docstring."""
    # set-up runs the first operation of one fixed stream, so that every
    # seed's set-up does the same work
    first = next(stream(workload, SETUP_SEED))[1]
    setup, setup_wall_s = cold_starts(workload, first, setup_starts)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = load_program(with_cli=workload == "cli_mix")
    if trace:
        metrics, attempted, failed, deterministic, report = replay(lib, workload, seed, max_ops)
        correct = failed == 0 and deterministic
        metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
    else:
        metrics, attempted, failed, report = measure(lib, workload, seed, seconds, max_ops)
        correct = failed == 0
        metrics["setup_s"] = setup["setup_s"]
    report = {"workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
              "setup_wall_s": setup_wall_s,
              "correct": correct, "attempted": attempted, "failed": failed, **report,
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in metrics.items()}}
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    return report, line


def _table(report):
    rows = [f"# {report['workload']} seed={report['seed']} trace={report['trace']} "
            f"inputs={report['inputs_digest']} attempted={report['attempted']} "
            f"failed={report['failed']} correct={report['correct']}"]
    for name, m in report["metrics"].items():
        rows.append(f"{name:<42} {m['value']:>16.6g} {m['unit']:<10} n={m['n']}")
    # reported, not in BENCHMARK.json: a healthy run has no failures, and a
    # bound relative to a median of 0 is meaningless
    rows.append(f"{'failed_frac':<42} {report['failed_frac']:>16.6g} {'ratio':<10} "
                f"n={report['attempted']}")
    if "known_defects" in report:
        rows.append(f"{'failed_frac_incl_known_defects':<42} "
                    f"{report['failed_frac_incl_known_defects']:>16.6g} {'ratio':<10} "
                    f"n={report['attempted'] + report['known_defects']['attempted']}")
    return "\n".join(rows)


def run_all(seed, seconds):
    """Every workload untraced and traced, each in its own process."""
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(_table(report))
            for key in ("failure_classes", "known_defects"):
                if report.get(key):
                    print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
            line["correct"] &= result["correct"]
            line["attempted"] += result["attempted"]
            line["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                line["metrics"][f"{workload}.{name}"] = m
    return line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "convex_enclose" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        line = run_all(args.seed, args.seconds)
    else:
        report, line = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(_table(report))
        for key in ("failure_classes", "known_defects"):
            if report.get(key):
                print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
        print(json.dumps(report, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
