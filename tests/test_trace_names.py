"""The benchmark's tracer wraps package functions by name.

``perfbench/spans.py`` lists the traced functions per ``tpa`` module
(``LAYERS``), and ``perfbench/run.py`` reads per-layer figures by span
label (``PER_LAYER``); a traced run fails when a listed name is missing or
a label records no call.  Both tables are read here from the source text,
without importing the benchmark, so that a renamed function fails this
suite rather than only the traced benchmark run.
"""

import ast
import importlib
import pathlib
import re

from tpa import verify

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


def test_every_per_layer_label_names_a_traced_function():
    (layers,) = _assignments(PERFBENCH / "spans.py", "LAYERS")
    _, per_layer = _assignments(PERFBENCH / "run.py", "PAPER_CRITERIA", "PER_LAYER")
    criteria = {cid for cid, _ in verify.CRITERIA}
    labels = [label for table in per_layer.values() for _, _, label in table if label]
    assert "algebra.check_identity" in labels
    for label in labels:
        module, _, name = re.sub(r"\[.*\]$", "", label).partition(".")
        assert name in layers.get(module, ()) or module == "verify" and name in criteria, label
