"""One benchmark process: runs a workload against ``tpa`` and reports JSON.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; not
meant to be run by hand.  Two commands:

  worker.py run   --workload NAME --seed N --seconds S
      closed loop, one thread, in rounds (every source once) for S
      seconds after a short warm-up; prints each operation's latency
      with the host speed measured right after it, and the check counts.
  worker.py trace --workload NAME --seed N --pass plain|spans
      one fixed sample of operations (every source once), either bare
      or with layer spans and the file sampler; prints busy time (raw
      and at nominal host speed) and, with spans, the span summary and
      the sampled self time of fractions.py and tpa/scalars.py.

Inputs are generated from the seed before each operation and outside
its timing; every result is checked against an oracle computed from
the untransformed input.  Library functions are reached through their
modules (``iso.fingerprint``), so the span wrappers see top-level calls.
"""

from __future__ import annotations

import argparse
import contextlib
import fractions
import io
import json
import os
import random
import sys
import traceback
from fractions import Fraction
from time import perf_counter

from tpa import algebra, catalog, cli, degeneration, derivations, dspecial, iso, linalg, scalars
from tpa.scalars import QQ, QQ_T

from oracle import paper_ok
from probe import probe, speed
from spans import Sampler, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
HALF = Fraction(1, 2)

#: host speed probes after an operation: one per this much operation time
PROBE_EVERY_S = 0.02


def random_invertible(rng, bound):
    """A 3x3 rational matrix with integer entries in [-bound, bound] and
    nonzero determinant."""
    while True:
        m = [[Fraction(rng.randint(-bound, bound)) for _ in range(3)] for _ in range(3)]
        if linalg.det(m, QQ):
            return m


def random_unimodular(rng, bound):
    """A 3x3 integer matrix of determinant +-1: a signed permutation times
    unit lower and upper triangular factors with off-diagonal entries in
    [-bound, bound].  Its inverse is integral too, so the coefficient
    sizes it produces vary little from draw to draw."""
    one = Fraction(1)
    lower = [[one if i == j else Fraction(rng.randint(-bound, bound)) if i > j else 0 * one
              for j in range(3)] for i in range(3)]
    upper = [[one if i == j else Fraction(rng.randint(-bound, bound)) if i < j else 0 * one
              for j in range(3)] for i in range(3)]
    perm = rng.sample(range(3), 3)
    signed = [[Fraction(rng.choice((-1, 1))) if perm[i] == j else 0 * one for j in range(3)]
              for i in range(3)]
    return linalg.mat_mul(signed, linalg.mat_mul(lower, upper))


def _frozen(m):
    return tuple(tuple(row) for row in m)


class FreshQueries:
    """Single-algebra queries on seeded GL(3,Q) changes of basis of the
    70 sampled T-series pairs.  No input repeats, so nothing a cache holds
    is reused; the answers must equal those of the untransformed source,
    because every query computes a basis-independent property."""

    BOUND = 4  # catalog bases use entries in {-1, 0, 1}

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.sources = [pair for _, _, pair in catalog.t_series_samples()]
        self.expected = [self.invariants(pair) for pair in self.sources]
        self.count = len(self.sources)
        self.seen = set()

    @staticmethod
    def invariants(pair):
        return (
            algebra.is_transposed_poisson(pair),
            iso.fingerprint(pair),
            derivations.delta_derivations(pair.bracket, HALF).dim,
            derivations.half_biderivations(pair.bracket, symmetric=True).dim,
            dspecial.is_strong_d_special(pair),
        )

    def make(self, index):
        while True:
            g = random_invertible(self.rng, self.BOUND)
            key = (index, _frozen(g))
            if key not in self.seen:
                break
        self.seen.add(key)
        source = self.sources[index]
        return index, source, algebra.transport(source, g), g

    def sample(self):
        return [self.make(i) for i in range(self.count)]

    def op(self, inp):
        _, source, moved, g = inp
        return iso.verify_witness(source, moved, g), self.invariants(moved)

    def ok(self, inp, result):
        return result == (True, self.expected[inp[0]])


class DegenerationCurves:
    """Degeneration limits along seeded conjugates of the 30 table curves.

    For a row with source s, curve g(t) and target T, the source is
    rewritten by a constant h (transport), the curve becomes k.g(t).h and
    the limit of the group action is taken.  Since the action composes,
    the limit is the row's own limit moved by k, which is T moved by
    k.w, where w is the row's post-limit witness (identity when the row
    matches exactly).  All arithmetic is over Q(t)."""

    BOUND = 2

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.rows = []
        for inst in degeneration.load_rows():
            w = (algebra.matrix_from_json(inst.post_witness) if inst.post_witness
                 else linalg.identity(3, QQ))
            self.rows.append((inst.source_pair(), inst.g_matrix(), inst.target_pair(), w))
        self.count = len(self.rows)
        self.seen = set()

    def make(self, index):
        while True:
            h = random_unimodular(self.rng, self.BOUND)
            k = random_unimodular(self.rng, self.BOUND)
            key = (index, _frozen(h), _frozen(k))
            if key not in self.seen:
                break
        self.seen.add(key)
        source, g, target, w = self.rows[index]
        h_t = [[QQ_T.coerce(x) for x in row] for row in h]
        k_t = [[QQ_T.coerce(x) for x in row] for row in k]
        curve = linalg.mat_mul(linalg.mat_mul(k_t, g), h_t)
        expected = algebra.gl_action(target, linalg.mat_mul(k, w))
        return algebra.transport(source, h_t), curve, expected

    def sample(self):
        return [self.make(i) for i in range(self.count)]

    @staticmethod
    def op(inp):
        source, curve, _ = inp
        if not linalg.det(curve, QQ_T):
            raise degeneration.SingularFamily("conjugated curve is singular")
        return algebra.limit_pair(algebra.gl_action(source, curve))

    @staticmethod
    def ok(inp, result):
        return algebra.pairs_equal(result, inp[2])


class Paper:
    """The whole reproduction suite in this process (traced runs only;
    the timed paper workload starts a fresh ``tpa verify-paper`` per
    repetition from run.py)."""

    def __init__(self, seed):
        del seed  # the suite has no inputs; TPA_SAMPLE_SEED comes from the environment

    @staticmethod
    def sample():
        return [None]

    @staticmethod
    def op(_inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify-paper"])
        return buf.getvalue().encode(), code

    @staticmethod
    def ok(_inp, result):
        return paper_ok(result[0], result[1], os.environ.get("TPA_SAMPLE_SEED"))


WORKLOADS = {
    "paper": Paper,
    "fresh-queries": FreshQueries,
    "degeneration-curves": DegenerationCurves,
}

#: untimed operations before a timed loop; their inputs are never reused
WARMUP = {"fresh-queries": 5, "degeneration-curves": 3}

_FAILED = object()


def probes_after(elapsed):
    """Probe times taken right after an operation that took ``elapsed``."""
    return [probe() for _ in range(max(1, round(elapsed / PROBE_EVERY_S)))]


def attempt(workload, inp):
    """(seconds, passed) for one operation; an exception is a failure."""
    start = perf_counter()
    try:
        result = workload.op(inp)
    except Exception:  # noqa: BLE001 - any error in the library is a failed operation
        traceback.print_exc()
        result = _FAILED
    elapsed = perf_counter() - start
    passed = result is not _FAILED and workload.ok(inp, result)
    if not passed and result is not _FAILED:
        print("wrong answer", file=sys.stderr)
    return elapsed, passed


def timed_loop(name, seed, seconds):
    """Warm up, then run rounds until ``seconds`` have passed; the last
    round is finished.  A round visits every source once, in a fresh
    seeded order, so every run weighs the sources equally.  Each
    operation is followed by host speed probes.  Returns [latency, host
    speed] per operation, latency None for a failed operation."""
    workload = WORKLOADS[name](seed)
    rng = workload.rng
    attempted, failed, rounds, ops = 0, 0, 0, []
    for _ in range(WARMUP[name]):
        _, passed = attempt(workload, workload.make(rng.randrange(workload.count)))
        attempted += 1
        failed += not passed
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for index in rng.sample(range(workload.count), workload.count):
            elapsed, passed = attempt(workload, workload.make(index))
            ops.append([elapsed if passed else None, speed(probes_after(elapsed))])
            attempted += 1
            failed += not passed
        rounds += 1
    return {"attempted": attempted, "failed": failed, "rounds": rounds, "ops": ops}


def trace_pass(name, seed, kind):
    """Run the fixed sample once; probes between operations stay outside
    the spans and the sampler."""
    workload = WORKLOADS[name](seed)
    inputs = workload.sample()
    traced = kind == "spans"
    tracer, sampler = Tracer(), Sampler()
    outcomes, busy_nominal = [], 0.0
    with tracer.installed() if traced else contextlib.nullcontext():
        for inp in inputs:
            with sampler.running() if traced else contextlib.nullcontext():
                outcomes.append(attempt(workload, inp))
            elapsed = outcomes[-1][0]
            busy_nominal += elapsed * speed(probes_after(elapsed))
    doc = {
        "attempted": len(outcomes),
        "failed": sum(not passed for _, passed in outcomes),
        "busy_s": sum(elapsed for elapsed, _ in outcomes),
        "busy_nominal_s": busy_nominal,
    }
    if traced:
        doc["layers"] = tracer.summary()
        doc["fractions_s"] = sampler.self_s(fractions)
        doc["scalars_s"] = sampler.self_s(scalars)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{name}.json"))
    return doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=["run", "trace"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--pass", dest="kind", choices=["plain", "spans"],
                    default="plain")
    args = ap.parse_args(argv)
    if args.command == "run":
        if args.workload not in WARMUP:
            ap.error("the paper workload is timed by run.py, one process per repetition")
        doc = timed_loop(args.workload, args.seed, args.seconds)
    else:
        doc = trace_pass(args.workload, args.seed, args.kind)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
