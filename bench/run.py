#!/usr/bin/env python3
"""Benchmark for toposval: whole verdicts per second, split across modules.

Run from the repository root:

    python3 bench/run.py --workload ks-ladder --seed 1 --seconds 4 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 4

Workloads: ks-ladder, state-verdicts, operator-suite (``all`` runs the three
in turn).  The run prints readable metric lines, then, as its last line, one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A copy of the result, with the environment and digests, is
written under ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("ks-ladder", "state-verdicts", "operator-suite")
IMPORT_REPEATS = 3
TAIL_BEYOND = 10

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import toposval\n"
    "seconds = time.perf_counter() - t\n"
    "import statistics, calibrate\n"
    "ref = statistics.median(calibrate.reference_seconds() for _ in range(5))\n"
    "print(seconds, seconds * calibrate.REF_NOMINAL_S / ref)\n"
)


@dataclass
class JobRecord:
    round: int
    kind: str
    start: float
    end: float
    digest: str | None
    problems: list[str]
    counters: dict = field(default_factory=dict)
    outcome: object = None   # kept only for the job the CLI parity check reruns
    seconds: float = 0.0     # wall time, less the host sampling inside the job
    scale: float = 1.0       # wall to calibrated time

    @property
    def calibrated(self) -> float:
        return self.seconds * self.scale


def import_seconds() -> tuple[float, float]:
    """Wall and calibrated time of ``import toposval`` in a fresh
    interpreter, calibrated by the reference kernel run right after it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    wall, calibrated = (float(x) for x in done.stdout.split()[-2:])
    return wall, calibrated


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS reports, when it can be asked."""
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(handle, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
    }


def run_job(workload, job, tr, index: int, round_index: int) -> JobRecord:
    tr.job = index
    start = time.perf_counter()
    try:
        with tr.span("job"):
            done = workload.run(job, tr)
    except Exception:  # a job that raises is counted as failed; the run goes on
        return JobRecord(round_index, job.kind, start, time.perf_counter(), None,
                         [traceback.format_exc(limit=4)])
    return JobRecord(round_index, job.kind, start, time.perf_counter(), done.digest,
                     list(done.problems), done.counters, done)


def measure(workload, rounds: list, seconds: float, tr, replay: bool = False,
            keep: int | None = None) -> list[JobRecord]:
    """Whole rounds until `seconds` of job time are spent (at least one);
    with `replay`, exactly the rounds already in `rounds`.  Each job's
    time is calibrated against the host speed sampled during it.  Only
    job `keep` retains its outcome."""
    from calibrate import HostSampler

    records: list[JobRecord] = []
    spent = 0.0
    r = 0
    with HostSampler() as host:
        while (r < len(rounds)) if replay else (r == 0 or spent < seconds):
            if r == len(rounds):
                rounds.append(workload.make_round(r))
            for job in rounds[r]:
                rec = run_job(workload, job, tr, len(records), r)
                if len(records) != keep:
                    rec.outcome = None
                records.append(rec)
                spent += rec.end - rec.start
            r += 1
    for rec in records:
        rec.seconds, rec.scale = host.window(rec.start, rec.end)
    tr.pauses = list(zip(host.at, host.took))
    return records


def round_statistics(times_by_round: dict[int, list[float]]) -> dict:
    """Median and tail job time within each round of the fixed job mix,
    then the median of each over the rounds.  The tail is the highest
    percentile of a round with at least TAIL_BEYOND jobs beyond it."""
    size = len(times_by_round[0])
    if size <= TAIL_BEYOND:
        raise ValueError(f"a round of {size} jobs has no percentile with {TAIL_BEYOND} jobs beyond it")
    rank = size - TAIL_BEYOND   # 1-based rank of the tail job within its round
    p50 = [statistics.median(t) for t in times_by_round.values()]
    tail = [sorted(t)[rank - 1] for t in times_by_round.values()]
    return {
        "p50": statistics.median(p50),
        "tail": statistics.median(tail),
        "tail_percentile": 100.0 * rank / size,
        "jobs_per_round": size,
        "rounds": len(times_by_round),
    }


def timings(records: list[JobRecord], calibrated: bool) -> dict:
    """Rate, median and tail of the job times, calibrated or wall."""
    by_round: dict[int, list[float]] = {}
    for rec in records:
        by_round.setdefault(rec.round, []).append(rec.calibrated if calibrated else rec.seconds)
    total = sum(sum(t) for t in by_round.values())
    return {"verdicts_per_s": len(records) / total, "job_time_s": total, **round_statistics(by_round)}


def workload_digest(records: list[JobRecord]) -> str:
    """Digest of the first round's job reports: a fixed function of the seed."""
    first = [rec.digest or "raised" for rec in records if rec.round == 0]
    return hashlib.sha256("".join(first).encode()).hexdigest()


def first_round_counters(records: list[JobRecord]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for rec in records:
        if rec.round == 0:
            for k, v in rec.counters.items():
                totals[k] = totals.get(k, 0) + v
    return totals


def by_kind(records: list[JobRecord]) -> dict[str, float]:
    kinds: dict[str, list[float]] = {}
    for rec in records:
        kinds.setdefault(rec.kind, []).append(rec.calibrated)
    return {k: statistics.median(v) for k, v in kinds.items()}


def span_by_kind(tr, records: list[JobRecord]) -> dict[str, dict[str, float]]:
    """Per job kind, the median per-job calibrated self time of each span name."""
    per_job: dict[int, dict[str, float]] = {}
    for s, busy in zip(tr.spans, tr.self_seconds([rec.scale for rec in records])):
        row = per_job.setdefault(s.job, {})
        row[s.name] = row.get(s.name, 0.0) + busy
    kinds: dict[str, dict[str, list[float]]] = {}
    for index, row in per_job.items():
        spans = kinds.setdefault(records[index].kind, {})
        for name, busy in row.items():
            spans.setdefault(name, []).append(busy)
    return {k: {n: statistics.median(v) for n, v in spans.items()} for k, spans in kinds.items()}


def measure_setup(workload) -> dict:
    """setup_s: the median import time of toposval in a fresh interpreter
    plus the median time of the workload's shared set-up, both calibrated."""
    from calibrate import around

    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    setups = [around(workload.setup)[1:] for _ in range(workload.setup_repeats)]
    return {
        "setup_s": statistics.median(c for _, c in imports)
        + statistics.median(wall * k for wall, k in setups),
        "wall_setup_s": statistics.median(w for w, _ in imports)
        + statistics.median(wall for wall, _ in setups),
        "import_s": [w for w, _ in imports],
        "shared_setup_s": [wall for wall, _ in setups],
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "toposval" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'toposval'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    import toposval
    if Path(toposval.__file__).resolve().parent != (SRC / "toposval").resolve():
        print(f"error: imported toposval from {toposval.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from calibrate import REF_NOMINAL_S
    from spans import Tracer
    from workloads import COUNTERS, SPANS, WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[name](seed, str(workdir))
        setup = measure_setup(workload)
        rounds = [workload.make_round(0)]
        untraced = Tracer(enabled=False)
        if workload.warmup:
            workload.run(rounds[0][0], untraced)
        parity_job = workload.parity_job(rounds[0])
        parity_index = rounds[0].index(parity_job)
        records = measure(workload, rounds, seconds, untraced, keep=parity_index)
        done = records[parity_index].outcome
        parity = workload.cli_parity(parity_job, done) if done else ["the job raised"]
        records[parity_index].problems += [f"CLI parity: {p}" for p in parity]

        traced_records = []
        tracer = Tracer(enabled=True)
        if trace:
            traced_records = measure(workload, rounds, seconds, tracer, replay=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cal = timings(records, calibrated=True)
    wall = timings(records, calibrated=False)
    failed = sum(1 for rec in records if rec.problems)
    failed_share = failed / len(records)
    digest = workload_digest(records)
    slowdown = statistics.median(1 / rec.scale for rec in records)
    end_to_end = {
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "verdicts_per_s": {"value": cal["verdicts_per_s"], "unit": "1/s"},
        "verdict_s.p50": {"value": cal["p50"], "unit": "s"},
        "verdict_s.tail": {"value": cal["tail"], "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "end_to_end": {**end_to_end, "failed_share": {"value": failed_share, "unit": "ratio"}},
        "calibrated": cal,
        "wall": {**wall, "setup_s": setup["wall_setup_s"]},
        "host_slowdown": slowdown,
        "reference_nominal_s": REF_NOMINAL_S,
        "setup": setup,
        "job_s_by_kind": by_kind(records),
        "digest": digest,
        "cli_parity": {"job": parity_index, "kind": parity_job.kind, "problems": parity},
        "oracle_runs": getattr(workload, "oracle_runs", None),
        "failures": [{"job": i, "kind": rec.kind, "problems": rec.problems}
                     for i, rec in enumerate(records) if rec.problems],
    }

    lines = [
        f"{name} seed {seed}: {len(records)} jobs in {cal['rounds']} round(s) of "
        f"{cal['jobs_per_round']}, {wall['job_time_s']:.2f} s of job wall time, "
        f"host slowdown x{slowdown:.2f}, digest {digest[:16]}",
        "  metric            calibrated     wall",
        f"  setup_s           {setup['setup_s']:10.4f}  {setup['wall_setup_s']:10.4f}  s",
        f"  verdicts_per_s    {cal['verdicts_per_s']:10.4f}  {wall['verdicts_per_s']:10.4f}  1/s",
        f"  verdict_s.p50     {cal['p50']:10.4f}  {wall['p50']:10.4f}  s",
        f"  verdict_s.tail    {cal['tail']:10.4f}  {wall['tail']:10.4f}  s  (p{cal['tail_percentile']:.1f} "
        f"of {cal['jobs_per_round']} jobs per round, median over {cal['rounds']} round(s))",
        f"  peak_rss_mb       {end_to_end['peak_rss_mb']['value']:10.1f}  MB",
        f"  failed_share      {failed_share:10.4f}  ratio  ({failed} of {len(records)} jobs)",
        f"  CLI parity on job {parity_index} ({parity_job.kind}): "
        + ("agrees" if not parity else "; ".join(parity)),
        "  median calibrated job time by kind: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in sorted(result["job_s_by_kind"].items())),
    ]
    for failure in result["failures"][:5]:
        lines.append(f"  FAILED job {failure['job']} ({failure['kind']}): {failure['problems']}")
    correct = failed == 0

    if trace:
        traced = timings(traced_records, calibrated=True)
        traced_digest = workload_digest(traced_records)
        mismatched = [i for i, (a, b) in enumerate(zip(records, traced_records)) if a.digest != b.digest]
        traced_failed = sum(1 for rec in traced_records if rec.problems)
        correct = correct and traced_failed == 0 and traced_digest == digest and not mismatched
        layers = tracer.self_times([rec.scale for rec in traced_records])
        metrics = {}
        for span in SPANS:
            row = layers.get(span, {"busy_s": 0.0, "calls": 0, "failed": 0})
            metrics[f"{span}.busy_s"] = {"value": row["busy_s"], "unit": "s"}
            metrics[f"{span}.calls"] = {"value": row["calls"], "unit": "count"}
            metrics[f"{span}.failed"] = {"value": row["failed"], "unit": "count"}
        counters = first_round_counters(traced_records)
        for counter in COUNTERS:
            metrics[counter] = {"value": counters.get(counter, 0), "unit": "count"}
        untraced_rate, traced_rate = cal["verdicts_per_s"], traced["verdicts_per_s"]
        metrics["trace.untraced_verdicts_per_s"] = {"value": untraced_rate, "unit": "1/s"}
        metrics["trace.traced_verdicts_per_s"] = {"value": traced_rate, "unit": "1/s"}
        metrics["trace.overhead_share"] = {"value": 1 - traced_rate / untraced_rate, "unit": "ratio"}
        result["per_layer"] = metrics
        result["span_s_by_kind"] = span_by_kind(tracer, traced_records)
        result["traced_digest"] = traced_digest
        trace_path = OUT / f"{name}-seed{seed}-spans.jsonl"
        tracer.write(trace_path)
        traced_time = traced["job_time_s"]
        lines.append(f"  traced replay: {len(traced_records)} jobs, {traced_rate:.4f} 1/s traced vs "
                     f"{untraced_rate:.4f} 1/s untraced (calibrated); digest "
                     + ("reproduced" if traced_digest == digest and not mismatched else "DIFFERS"))
        lines.append(f"  layer self time, calibrated (share of {traced_time:.2f} s of traced job time):")
        for span, row in sorted(layers.items(), key=lambda kv: -kv[1]["busy_s"]):
            lines.append(f"    {span:38s} {row['busy_s']:9.4f} s  {row['busy_s'] / traced_time:6.1%}"
                         f"  {row['calls']} calls")
        lines.append("  median per-job self time of the top spans, by job kind:")
        for kind, spans in sorted(result["span_s_by_kind"].items()):
            top = sorted(((v, k) for k, v in spans.items() if k != "job"), reverse=True)[:3]
            lines.append(f"    {kind:14s} " + ", ".join(f"{k} {v:.4f} s" for v, k in top))
        lines.append(f"  spans written to {trace_path.relative_to(ROOT)}")
        attempted = len(records) + len(traced_records)
        failed += traced_failed
    else:
        metrics = end_to_end
        attempted = len(records)

    result["correct"] = correct
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=4.0,
                        help="job time to measure; whole rounds are run, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in WORKLOAD_NAMES
        ]
        return max(codes)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
