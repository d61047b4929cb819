"""Layer tracing applied from outside the workbench.

Every public layer function listed in ``LAYERS`` is replaced, for the
duration of a ``Tracer.installed()`` block, by a wrapper that records one
span (label, parent span, start, end) per call.  The wrapper is bound in
every ``tpa`` module that holds the original under any name, because
modules import each other's functions by name (``from .derivations
import pair_derivations``); patching only the defining module would miss
those calls.  The verification criteria are wrapped through
``verify.CRITERIA``.  Originals are put back when the block exits.

Spans stay in memory until ``summary()`` or ``dump()`` is called.  A
span's self time is its duration minus the durations of its direct
child spans.

``Sampler`` is a statistical profiler by source file, cheap enough to
run in the same pass as the spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import signal
import sys
from time import perf_counter, process_time

#: module of ``tpa`` -> public functions traced there
LAYERS = {
    "linalg": ("rref", "nullspace", "solve", "rank", "inv", "det", "span_dim", "in_span"),
    "algebra": ("transport", "gl_action", "check_identity", "is_transposed_poisson",
                "limit_pair"),
    "catalog": ("instantiate", "t_series_samples"),
    "derivations": ("delta_derivations", "pair_derivations", "half_biderivations",
                    "derivation_residual"),
    "enumeration": ("tp_family", "assoc_residual", "check_membership"),
    "iso": ("verify_witness", "fingerprint"),
    "dspecial": ("derived_bracket", "derivation_matching_bracket", "is_strong_d_special"),
    "degeneration": ("load_rows", "verify_all", "verify_instance", "necessary_checks",
                     "orbit_dim"),
    "verify": ("run_suite", "separation_audit", "rigidity_audit"),
    "cli": ("main",),
}


def _field_of_last_arg(*args, **kwargs):
    field = kwargs.get("field", args[-1])
    return f"[{field.name}]"


#: functions whose spans are labelled by the scalar field they run over
VARIANTS = {"linalg.rref": _field_of_last_arg}


def _rref_key(rows, field):
    return field.name, tuple(tuple(r) for r in rows)


def _pair_key(pair):
    return pair


#: functions whose distinct inputs are counted; the key must be hashable
DISTINCT_KEYS = {
    "linalg.rref": _rref_key,
    "derivations.pair_derivations": _pair_key,
}


class Tracer:
    def __init__(self):
        self.spans = []   # [label, parent index or -1, start, end]
        self._stack = []
        self._keys = {}   # function name -> set of distinct input keys

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        variant = VARIANTS.get(name)
        key = DISTINCT_KEYS.get(name)
        if key is not None:
            seen = self._keys.setdefault(name, set())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if variant is None else name + variant(*args, **kwargs)
            if key is not None:
                seen.add(key(*args, **kwargs))
            span = [label, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function wherever a ``tpa`` module binds it."""
        import tpa.cli  # noqa: F401  (loads every layer module)
        from tpa import verify

        wrappers = {}
        for layer, names in LAYERS.items():
            home = sys.modules[f"tpa.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrappers[id(original)] = (original, self.wrap(f"{layer}.{fname}", original))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "tpa" and not modname.startswith("tpa."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        criteria = verify.CRITERIA
        verify.CRITERIA = tuple(
            (cid, self.wrap(f"verify.{cid}", run)) for cid, run in criteria
        )
        try:
            yield
        finally:
            verify.CRITERIA = criteria
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def summary(self):
        """label -> {"calls", "total_s", "self_s"}; functions with variants
        also get an entry under the plain name, and functions in
        DISTINCT_KEYS a "distinct" count."""
        child_s = [0.0] * len(self.spans)
        for label, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {}
        for (label, _, start, end), inner in zip(self.spans, child_s):
            names = [label]
            if label.endswith("]"):
                names.append(label[: label.index("[")])
            for name in names:
                agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                agg["calls"] += 1
                agg["total_s"] += end - start
                agg["self_s"] += end - start - inner
        for name, keys in self._keys.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            out[name]["distinct"] = len(keys)
        return out

    def dump(self, path):
        """Write every span as [label, parent, start, end] to a JSON file."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class Sampler:
    """CPU time by source file, sampled.

    While ``running()``, SIGPROF fires every PERIOD_S of process CPU time
    and the handler counts the file of the Python frame it interrupted;
    time in C helpers counts toward their Python caller.  A file's self
    time is its share of the samples times the CPU time sampled, which
    does not depend on the kernel's timer granularity.  A deterministic
    profiler would slow Fraction-heavy code about threefold.
    """

    PERIOD_S = 0.001

    def __init__(self):
        self._counts = collections.Counter()
        self._cpu_s = 0.0

    def _sample(self, signum, frame):
        if frame is not None:
            self._counts[frame.f_code.co_filename] += 1

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._sample)
        start = process_time()
        signal.setitimer(signal.ITIMER_PROF, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self._cpu_s += process_time() - start
            signal.signal(signal.SIGPROF, previous)

    def self_s(self, module):
        """Sampled CPU seconds spent in the source file of ``module``."""
        def norm(path):
            return os.path.normcase(os.path.realpath(path))

        target = norm(module.__file__)
        total = sum(self._counts.values())
        hits = sum(n for path, n in self._counts.items() if norm(path) == target)
        return self._cpu_s * hits / total if total else 0.0
