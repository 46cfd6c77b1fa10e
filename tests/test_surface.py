"""The public names and the points the benchmark's tracer wraps stay in place.

perfbench/spans.py wraps the pipeline's functions by name, so renaming or
removing one of them breaks the traced benchmark run; this test shows that
without running the benchmark.
"""

import importlib.util
from pathlib import Path

import numpy as np

import vibrot
from vibrot import cli, dynamics, molecule, normalmodes, quadform, rotor, watson

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = {"cli": cli, "molecule": molecule, "normalmodes": normalmodes,
           "quadform": quadform, "dynamics": dynamics, "watson": watson, "rotor": rotor}


def test_every_exported_name_resolves():
    missing = [name for name in vibrot.__all__ if not hasattr(vibrot, name)]
    assert missing == []


def namespace_snapshot():
    owners = list(MODULES.values()) + [cli._Outputs, np.linalg]
    return [{k: id(v) for k, v in vars(owner).items()} for owner in owners]


def test_benchmark_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    before = namespace_snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install(MODULES, np.linalg)
        assert namespace_snapshot() != before
    finally:
        tracer.restore()
    assert namespace_snapshot() == before
