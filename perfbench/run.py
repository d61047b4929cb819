"""Benchmark of the tpa workbench, driven through its CLI and public functions.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (load is one client, one thread, closed loop):

  paper                one ``tpa verify-paper`` per repetition, each in a
                       fresh interpreter, until S seconds have passed;
                       the suite repeats eliminations heavily.
  fresh-queries        one process answering single-algebra queries on
                       seeded changes of basis of the sampled T-series;
                       no input repeats; Q arithmetic only.
  degeneration-curves  one process taking degeneration limits along
                       seeded conjugates of the table curves; Q(t)
                       arithmetic.

``--trace 0`` prints the end-to-end metrics of the chosen workload,
measured without tracing, with times at nominal host speed (probe.py).
``--trace 1`` runs a fixed sample of every workload in separate
processes, bare and with layer spans plus the file sampler, and prints
the per-layer metrics of all three (each named after the workload that
exercises it, so no layer reads as a structural zero) plus the tracing
overhead.

``--sample-seed PROFILE`` sets TPA_SAMPLE_SEED for the program; by
default it is unset, and the paper output is checked against its known
hash.  The last line of stdout is the JSON result; the line before it
records the run's context (Python version, nproc, seeds).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from oracle import paper_ok
from probe import probe, speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
PAPER_CLI = os.path.join(HERE, "paper_cli.py")
WORKLOADS = ("paper", "fresh-queries", "degeneration-curves")

#: what every CLI call pays before its first computation
SETUP_CODE = "import tpa.cli, tpa.verify\nfrom tpa.catalog import instantiate\ninstantiate('T05')"
SETUP_REPEATS = 11
#: host speed probes (about 1 ms each) taken after each set-up launch
SETUP_PROBES = 20

#: per-layer metrics: workload -> (metric, source, span label or pass key).
#: Sources: calls / self_s / total_s / distinct_ratio read the span
#: summary; fractions_s / scalars_s the file sampler; overhead compares
#: the spans pass with the bare pass at nominal host speed.
PAPER_CRITERIA = ("1-axioms", "2-halfder-table", "3-enumeration", "4-witnesses",
                  "5-strong-d-special", "6-novikov", "7-degenerations", "8-properties")
PER_LAYER = {
    "paper": [
        ("linalg.rref.calls_q", "calls", "linalg.rref[Q]"),
        ("linalg.rref.calls_qt", "calls", "linalg.rref[Q(t)]"),
        ("linalg.rref.distinct_ratio", "distinct_ratio", "linalg.rref"),
        ("derivations.pair_derivations.calls", "calls", "derivations.pair_derivations"),
        ("derivations.pair_derivations.distinct_ratio", "distinct_ratio",
         "derivations.pair_derivations"),
        ("degeneration.verify_all.calls", "calls", "degeneration.verify_all"),
        ("degeneration.necessary_checks.calls", "calls", "degeneration.necessary_checks"),
        ("catalog.instantiate.calls", "calls", "catalog.instantiate"),
        ("scalars.fraction_self_s", "fractions_s", None),
        ("scalars.ratfunc_self_s", "scalars_s", None),
        ("linalg.rref.self_s_q", "self_s", "linalg.rref[Q]"),
        ("derivations.delta_derivations.self_s", "self_s", "derivations.delta_derivations"),
        ("derivations.half_biderivations.self_s", "self_s", "derivations.half_biderivations"),
        ("iso.fingerprint.self_s", "self_s", "iso.fingerprint"),
        ("dspecial.derivation_matching_bracket.self_s", "self_s",
         "dspecial.derivation_matching_bracket"),
        ("algebra.transport.self_s", "self_s", "algebra.transport"),
        ("algebra.check_identity.self_s", "self_s", "algebra.check_identity"),
        ("enumeration.tp_family.self_s", "self_s", "enumeration.tp_family"),
        ("catalog.instantiate.self_s", "self_s", "catalog.instantiate"),
        *((f"verify.{cid}.s", "total_s", f"verify.{cid}") for cid in PAPER_CRITERIA),
        ("verify.separation_audit.s", "total_s", "verify.separation_audit"),
        ("verify.rigidity_audit.s", "total_s", "verify.rigidity_audit"),
        ("trace_overhead_s", "overhead", None),
    ],
    "fresh-queries": [
        ("linalg.rref.calls_q", "calls", "linalg.rref[Q]"),
        ("linalg.rref.distinct_ratio", "distinct_ratio", "linalg.rref"),
        ("derivations.pair_derivations.calls", "calls", "derivations.pair_derivations"),
        ("derivations.pair_derivations.distinct_ratio", "distinct_ratio",
         "derivations.pair_derivations"),
        ("scalars.fraction_self_s", "fractions_s", None),
        ("linalg.rref.self_s_q", "self_s", "linalg.rref[Q]"),
        ("derivations.delta_derivations.self_s", "self_s", "derivations.delta_derivations"),
        ("derivations.half_biderivations.self_s", "self_s", "derivations.half_biderivations"),
        ("iso.fingerprint.self_s", "self_s", "iso.fingerprint"),
        ("dspecial.derivation_matching_bracket.self_s", "self_s",
         "dspecial.derivation_matching_bracket"),
        ("algebra.transport.self_s", "self_s", "algebra.transport"),
        ("algebra.check_identity.self_s", "self_s", "algebra.check_identity"),
        ("trace_overhead_s", "overhead", None),
    ],
    "degeneration-curves": [
        ("linalg.rref.calls_qt", "calls", "linalg.rref[Q(t)]"),
        ("scalars.ratfunc_self_s", "scalars_s", None),
        ("scalars.fraction_self_s", "fractions_s", None),
        ("linalg.rref.self_s_qt", "self_s", "linalg.rref[Q(t)]"),
        ("linalg.inv.self_s", "self_s", "linalg.inv"),
        ("linalg.det.self_s", "self_s", "linalg.det"),
        ("algebra.gl_action.self_s", "self_s", "algebra.gl_action"),
        ("algebra.limit_pair.self_s", "self_s", "algebra.limit_pair"),
        ("trace_overhead_s", "overhead", None),
    ],
}
UNITS = {"calls": "count", "distinct_ratio": "ratio", "fractions_s": "s", "scalars_s": "s",
         "self_s": "s", "total_s": "s", "overhead": "s"}


class BenchError(RuntimeError):
    """The benchmark could not measure: missing sources or a crashed child."""


def child_env(sample_seed):
    env = {k: v for k, v in os.environ.items() if k not in ("TPA_SAMPLE_SEED", "PYTHONPATH")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    if sample_seed is not None:
        env["TPA_SAMPLE_SEED"] = sample_seed
    return env


def run_child(argv, env, pass_fds=()):
    """(stdout bytes, exit code, wall seconds, peak RSS in MB) of one child.

    stderr passes through; the child's own rusage gives its peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, pass_fds=pass_fds)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, wall, usage.ru_maxrss / 1024


def worker_doc(args, env):
    """Run worker.py with ``args``; return its JSON result and peak RSS."""
    out, code, _, rss = run_child([sys.executable, WORKER, *args], env)
    if code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    return json.loads(out.decode().splitlines()[-1]), rss


def measure_setup(env):
    """Median wall time of a fresh interpreter that imports the CLI and the
    suite and instantiates one algebra, raw and at nominal host speed.
    One untimed launch first fills the bytecode cache; probes follow each
    launch."""
    times, probe_s = [], []
    for i in range(SETUP_REPEATS + 1):
        _, code, wall, _ = run_child([sys.executable, "-c", SETUP_CODE], env)
        if code != 0:
            raise BenchError(f"set-up interpreter exited with {code}")
        if i:
            times.append(wall)
            probe_s += [probe() for _ in range(SETUP_PROBES)]
    raw = statistics.median(times)
    return raw * speed(probe_s), raw


def run_paper(env):
    """One fresh ``tpa verify-paper`` with interleaved probes (paper_cli.py):
    (stdout, exit code, wall seconds less probe time, probes, peak RSS)."""
    read_end, write_end = os.pipe()
    with os.fdopen(read_end) as reader:
        try:
            out, code, wall, rss = run_child([sys.executable, PAPER_CLI, str(write_end)], env,
                                             pass_fds=(write_end,))
        finally:
            os.close(write_end)
        probe_s = json.loads(reader.read() or "[]")
    if not probe_s:
        raise BenchError("verify-paper reported no host speed probes")
    return out, code, wall - sum(probe_s), probe_s, rss


def paper_loop(env, seconds, sample_seed):
    """Fresh ``tpa verify-paper`` processes, one after another, while the
    next one should end within ``seconds`` (at least one)."""
    ops, attempted, failed, peak = [], 0, 0, 0.0
    first = None
    deadline = time.perf_counter() + seconds
    wall = 0.0
    while not attempted or time.perf_counter() + wall <= deadline:
        out, code, wall, probe_s, rss = run_paper(env)
        attempted += 1
        peak = max(peak, rss)
        passed = paper_ok(out, code, sample_seed, first)
        failed += not passed
        ops.append([wall if passed else None, speed(probe_s)])
        first = out if first is None else first
    return {"attempted": attempted, "failed": failed, "rounds": len(ops), "ops": ops}, peak


def timed_run(args, env):
    setup_s, setup_raw = measure_setup(env)
    if args.workload == "paper":
        doc, rss = paper_loop(env, args.seconds, args.sample_seed)
    else:
        doc, rss = worker_doc(["run", "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds)], env)
    done = [(x, factor) for x, factor in doc["ops"] if x is not None]
    raw = [x for x, _ in done]
    scaled = [x * factor for x, factor in done]
    if not scaled:
        raise BenchError("no operation completed correctly")
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "throughput_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    context = {
        "samples": len(scaled),
        "rounds": doc["rounds"],
        "host_speed_median": statistics.median(factor for _, factor in doc["ops"]),
        "raw_setup_s": setup_raw,
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        **tail(scaled),
    }
    return doc["attempted"], doc["failed"], metrics, context


def tail(latencies):
    """The highest of p90/p99 with at least ten samples beyond it, in ms.

    Reported in the context line, not as a metric: every workload reports
    the same metrics, and on ``paper`` no percentile has ten samples
    beyond it."""
    for pct in (99, 90):
        if len(latencies) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
            return {f"latency_p{pct}_ms": q * 1e3}
    return {}


def traced_run(args, env):
    metrics, attempted, failed = {}, 0, 0
    for workload, table in PER_LAYER.items():
        passes = {}
        for kind in ("plain", "spans"):
            passes[kind], _ = worker_doc(["trace", "--workload", workload, "--seed",
                                          str(args.seed), "--pass", kind], env)
            attempted += passes[kind]["attempted"]
            failed += passes[kind]["failed"]
        layers = passes["spans"]["layers"]
        for name, source, label in table:
            stats = layers.get(label, {"calls": 0}) if label else None
            if stats is not None and not stats["calls"]:
                raise BenchError(f"{workload}: layer function {label} recorded no calls")
            if source == "distinct_ratio":
                value = stats["distinct"] / stats["calls"]
            elif source in ("calls", "self_s", "total_s"):
                value = stats[source]
            elif source == "overhead":
                value = passes["spans"]["busy_nominal_s"] - passes["plain"]["busy_nominal_s"]
            else:
                value = passes["spans"][source]
            metrics[f"{workload}.{name}"] = (value, UNITS[source])
    return attempted, failed, metrics, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sample-seed", default=None,
                    help="TPA_SAMPLE_SEED for the program (default: unset)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tpa", "cli.py")):
        print(f"run.py: no tpa sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env(args.sample_seed)
    try:
        run = traced_run if args.trace else timed_run
        attempted, failed, metrics, extra = run(args, env)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tpa_sample_seed": args.sample_seed,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "failed_ratio": failed / attempted, **extra,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
