"""Tests of the benchmark's own code (kept out of the default test run).

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
from vibrot import cli, dynamics, molecule, normalmodes, quadform, rotor, watson  # noqa: E402

MODULES = {"cli": cli, "molecule": molecule, "normalmodes": normalmodes, "quadform": quadform,
           "dynamics": dynamics, "watson": watson, "rotor": rotor}


def run_job(job, tmp_path, tracer=None):
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / job.input_name
    path.write_text(job.inp.text)
    out = tmp_path / "out"
    argv = job.argv(path, out)
    if tracer is None:
        return cli.main(argv), out
    tracer.install(MODULES, np.linalg)
    try:
        return tracer.call_job(0, "cli.main", cli.main, argv), out
    finally:
        tracer.restore()


# -- generator ----------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_reproducible_per_seed(workload):
    first = [j.inp.text for j in run.build_jobs(workload, 7)]
    again = [j.inp.text for j in run.build_jobs(workload, 7)]
    other = [j.inp.text for j in run.build_jobs(workload, 8)]
    assert first == again
    if workload != "rotor-j200":  # six isotopologues: seeds may share one
        assert first != other


def test_chain_has_3n_minus_6_coordinates_and_bends_in_range():
    inp = inputs.chain("c", 12, np.random.default_rng(3), samples=11)
    assert inp.ncoords == 3 * 12 - 6
    kinds = [c[0] for c in inp.coords]
    assert (kinds.count("stretch"), kinds.count("bend"), kinds.count("torsion")) == (11, 10, 9)
    bends = oracle._values([c for c in inp.coords if c[0] == "bend"], inp.positions[None])
    assert np.all((np.degrees(bends) > 100 - 1e-6) & (np.degrees(bends) < 130 + 1e-6))
    d = np.sqrt(np.diag(inp.f))
    scaled = np.abs(inp.f / np.outer(d, d))
    assert np.all(scaled.sum(axis=1) - 1.0 < 1.0)  # dominant after scaling: F > 0
    assert np.isfinite(inp.cond_g) and inp.cond_g >= 1.0
    assert "[dynamics]" in inp.text and "samples = 11" in inp.text


def test_oracle_b_matrix_matches_vibrot(tmp_path):
    inp = inputs.chain("c", 9, np.random.default_rng(5))
    path = tmp_path / "c.inp"
    path.write_text(inp.text)
    parsed = cli.parse_input(path)
    b = molecule.build_b_matrix(parsed.molecule, parsed.internal_coordinates).rows
    assert np.abs(b - oracle.b_matrix(inp)).max() < 1e-8 * np.abs(b).max()


def test_small_batch_inputs_pass_on_this_code(tmp_path):
    for k, job in enumerate(run.build_jobs("small-batch", 0)):
        verify.prepare(job)
        code, out = run_job(job, tmp_path / str(k))
        outcome = verify.verify(job, code, out, {})
        assert outcome.ok, (job.inp.name, job.units, outcome.problems)


# -- span arithmetic ----------------------------------------------------------


def hand_built_tracer():
    """job 0: main [0, 100] > run [10, 90] > (a [20, 50] > b [25, 35]), c [60, 80]."""
    tracer = spans.Tracer()
    tracer.spans = [
        ["main", 0, 100, -1, 0],
        ["run", 10, 90, 0, 0],
        ["a", 20, 50, 1, 0],
        ["b", 25, 35, 2, 0],
        ["c", 60, 80, 1, 0],
        ["main", 200, 260, -1, 1],
        ["c", 210, 250, 5, 1],
    ]
    tracer.counts[0]["linalg.eigh"] = 3
    return tracer


def test_self_times_on_a_hand_built_tree():
    tracer = hand_built_tracer()
    assert spans.self_times(tracer.spans) == [20, 30, 20, 10, 20, 20, 40]
    job0 = spans.self_times(tracer.spans)[:5]
    assert sum(job0) == 100  # self times under a job add up to its wall time


def test_layer_summary_is_per_job():
    summary = spans.layer_summary(hand_built_tracer(), [0, 1])
    assert summary["c.s"] == pytest.approx((20 + 40) / 2 / 1e9)
    assert summary["b.s"] == pytest.approx(10 / 2 / 1e9)
    assert summary["c.calls"] == 1.0
    assert summary["linalg.eigh.calls"] == 3.0  # per job that called it
    assert sum(v for k, v in summary.items() if k.endswith(".s")) == pytest.approx(80 / 1e9)


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(1, 113))
    p, value = run.percentile_tail(xs)
    assert p == 91 and sum(x > value for x in xs) >= 10
    assert sum(x > run.percentile_tail(xs[:-1])[1] for x in xs[:-1]) >= 10
    assert run.percentile_tail(list(range(20))) == (50, 9)
    assert run.percentile_tail([3.0, 1.0, 2.0] * 6) == (100, 3.0)


# -- verification -------------------------------------------------------------


@pytest.fixture
def water_job(tmp_path):
    job = verify.prepare(verify.Job(inputs.water(1), ("modes", "watson-diagnostics", "rotor")))
    code, out = run_job(job, tmp_path)
    assert verify.verify(job, code, out, {}).ok
    return job, out


def rewrite_report(out, change):
    report = json.loads((out / "report.json").read_text())
    change(report)
    (out / "report.json").write_text(json.dumps(report))


def test_verification_rejects_a_perturbed_frequency(water_job):
    job, out = water_job

    def perturb(report):
        report["modes"]["frequencies"][1] *= 1.0 + 1e-5

    rewrite_report(out, perturb)
    outcome = verify.verify(job, 0, out, {})
    assert not outcome.ok and "frequencies differ from the oracle" in outcome.problems


def test_verification_rejects_a_missing_level(water_job):
    job, out = water_job
    rewrite_report(out, lambda report: report["rotor"]["levels"].pop(7))
    outcome = verify.verify(job, 0, out, {})
    assert not outcome.ok and "rotor levels" in outcome.problems[0]


def test_verification_rejects_exit_code_and_missing_file(water_job):
    job, out = water_job
    assert not verify.verify(job, 3, out, {}).ok
    (out / "modes.xyz").unlink()
    assert verify.verify(job, 0, out, {}).problems == ["missing modes.xyz"]


def test_digest_mismatch_is_counted_not_failed(water_job):
    job, out = water_job
    ref = {job.key: {"digest": "0" * 64}}
    outcome = verify.verify(job, 0, out, ref)
    assert outcome.ok and outcome.identical is False
    ref = {job.key: {"digest": verify.digest(out, job.files)}}
    assert verify.verify(job, 0, out, ref).identical is True


# -- wrappers -----------------------------------------------------------------


def namespace_snapshot():
    owners = list(MODULES.values()) + [cli._Outputs, np.linalg]
    return [{k: id(v) for k, v in vars(owner).items()} for owner in owners]


def test_wrappers_leave_the_modules_as_they_found_them(tmp_path):
    before = namespace_snapshot()
    tracer = spans.Tracer()
    tracer.install(MODULES, np.linalg)
    assert namespace_snapshot() != before
    tracer.restore()
    assert namespace_snapshot() == before

    job = verify.prepare(verify.Job(inputs.water(0), ("modes", "watson-diagnostics", "rotor")))
    code, out = run_job(job, tmp_path, tracer)
    assert code == 0 and namespace_snapshot() == before
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "cli.run", "cli.emit_json", "normalmodes.solve",
            "watson.interaction_coefficients", "rotor.wang_blocks"} <= names
    assert sum(s[0] == "cli.emit_json" for s in tracer.spans) == 1  # recursion not traced
    root = tracer.spans[0]
    assert sum(spans.self_times(tracer.spans)) == root[2] - root[1]
    summary = spans.layer_summary(tracer, [0])
    assert summary["normalmodes.solve.factorizations"] == 5
    assert summary["watson.interaction_coefficients.calls"] == 2
    assert summary["watson.interaction_coefficients.useful_ratio"] == 0.5


# -- BENCHMARK.json and the command line --------------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_a_traceback_counts_as_a_failed_job(capsys):
    def crash(argv):
        raise ZeroDivisionError("boom")

    assert run.call_cli(SimpleNamespace(main=crash), []) == 1
    assert "ZeroDivisionError: boom" in capsys.readouterr().err
    assert run.call_cli(SimpleNamespace(main=lambda argv: sys.exit(2)), []) == 2


def test_verification_rejects_unreadable_report(water_job):
    job, out = water_job
    (out / "report.json").write_text('{"modes": ')
    outcome = verify.verify(job, 0, out, {})
    assert not outcome.ok and outcome.problems[0].startswith("unreadable output")
