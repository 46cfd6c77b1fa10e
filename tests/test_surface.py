"""The public names and the points the benchmark's tracer wraps stay in place.

perfbench/spans.py wraps the pipeline's functions by name, so renaming or
removing one of them, or calling it through a reference taken at import,
breaks the traced benchmark run; these tests show that without running the
benchmark.
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


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_installs_and_restores():
    spans = load_spans()
    before = namespace_snapshot()
    tracer = spans.Tracer()
    try:
        tracer.install(MODULES, np.linalg)
        assert namespace_snapshot() != before
    finally:
        tracer.restore()
    assert namespace_snapshot() == before


def test_traced_job_times_the_writers_and_the_solve(tmp_path):
    # the task table calls the wrapped functions by their module names
    tracer = load_spans().Tracer()
    fixture = Path(__file__).resolve().parent / "fixtures" / "twomass.inp"
    argv = ["analyze", str(fixture), "--tasks", "modes,dynamics,rotor", "--out", str(tmp_path)]
    tracer.install(MODULES, np.linalg)
    try:
        assert tracer.call_job(0, "cli.main", cli.main, argv) == 0
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    for name in ("cli.solve_modes", "cli.xyz_frames", "cli.trajectory_csv", "cli.levels_text",
                 "cli.emit_json", "cli.write"):
        assert name in names
    writes = [end - start for name, start, end, _, _ in tracer.spans if name == "cli.write"]
    assert len(writes) == 4 and min(writes) > 0
    # one SVD per job: solve's, of B M^-1/2, which also decides B's rank
    assert tracer.counts[0]["linalg.svd"] == 1
