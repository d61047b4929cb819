"""The benchmark's tracer wraps package functions by name.

``perfbench/spans.py`` lists the traced functions per ``tpa`` module
(``LAYERS``), and ``perfbench/run.py`` reads per-layer figures by span
label (``PER_LAYER``); a traced run fails when a listed name is missing or
a label records no call.  Both tables are read here from the source text,
without importing the benchmark, so that a renamed function fails this
suite rather than only the traced benchmark run, and so does a function
that stops reaching the ``rref`` and ``inv`` labels the run reads.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

from tpa import linalg, verify
from tpa.algebra import gl_action, transport
from tpa.catalog import instantiate
from tpa.degeneration import load_rows

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _assignments(path, *names):
    """The module-level assignments to ``names`` in ``path``, evaluated on
    their own (they may refer to each other, and to nothing else)."""
    tree = ast.parse(path.read_text())
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)]
    namespace = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), str(path), "exec"), namespace)
    return [namespace[name] for name in names]


def test_every_traced_layer_resolves():
    (layers,) = _assignments(PERFBENCH / "spans.py", "LAYERS")
    assert "check_identity" in layers["algebra"]
    for module, names in layers.items():
        mod = importlib.import_module(f"tpa.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"tpa.{module}.{name}"


def test_cli_import_loads_every_traced_layer():
    # Tracer.installed() imports tpa.cli and then reads sys.modules["tpa.<layer>"]
    # for each layer, so a fresh import of the CLI must load them all
    (layers,) = _assignments(PERFBENCH / "spans.py", "LAYERS")
    out = subprocess.run([sys.executable, "-c", "import sys, tpa.cli; print(*sys.modules)"],
                         env=dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src")),
                         check=True, capture_output=True, text=True).stdout
    assert {f"tpa.{layer}" for layer in layers} <= set(out.split())


def test_every_per_layer_label_names_a_traced_function():
    (layers,) = _assignments(PERFBENCH / "spans.py", "LAYERS")
    _, per_layer = _assignments(PERFBENCH / "run.py", "PAPER_CRITERIA", "PER_LAYER")
    criteria = {cid for cid, _ in verify.CRITERIA}
    labels = [label for table in per_layer.values() for _, _, label in table if label]
    assert "algebra.check_identity" in labels
    for label in labels:
        module, _, name = re.sub(r"\[.*\]$", "", label).partition(".")
        assert name in layers.get(module, ()) or module == "verify" and name in criteria, label


def _transport_over_q():
    transport(instantiate("T05"), [[1, 1, 0], [0, 1, 0], [0, 0, 2]])


def _gl_action_over_qt():
    inst = load_rows()[0]
    gl_action(inst.source_pair(), inst.g_matrix())


#: the public call each workload drives into the ``rref`` and ``inv``
#: labels it reads: only ``inv`` calls ``rref`` since elimination moved to
#: ``linalg.echelon``, and ``transport`` (criterion 4, ``fresh-queries``)
#: and ``gl_action`` (the degeneration table) are what call ``inv``
REACHED_BY = {
    "linalg.rref": _transport_over_q,
    "linalg.rref[Q]": _transport_over_q,
    "linalg.rref[Q(t)]": _gl_action_over_qt,
    "linalg.inv": _gl_action_over_qt,
}


def test_inverse_labels_are_reached_by_transport(monkeypatch):
    # A traced run fails when a PER_LAYER label records no call, so a
    # transport that stops calling ``linalg.inv`` (an adjugate by cofactors,
    # say) breaks it; the labels can only move with the benchmark.
    _, per_layer = _assignments(PERFBENCH / "run.py", "PAPER_CRITERIA", "PER_LAYER")
    labels = {label for table in per_layer.values() for _, _, label in table
              if label and re.sub(r"\[.*\]$", "", label) in ("linalg.rref", "linalg.inv")}
    assert labels == set(REACHED_BY)
    recorded = []

    def counted(name, fn):
        def wrapper(*args):
            recorded.append(name)
            if name == "linalg.rref":
                recorded.append(f"{name}[{args[-1].name}]")
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "rref", counted("linalg.rref", linalg.rref))
    monkeypatch.setattr(linalg, "inv", counted("linalg.inv", linalg.inv))
    for label in sorted(labels):
        recorded.clear()
        REACHED_BY[label]()
        assert label in recorded, (
            f"{label} is no longer reached by {REACHED_BY[label].__name__}: the traced "
            "benchmark run would fail; redefine its layer keys first (ROADMAP item 5)")
