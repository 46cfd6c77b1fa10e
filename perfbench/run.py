"""End-to-end and per-layer benchmark of `vibrot analyze`.

    python3 perfbench/run.py --workload chain100 --seed 1 --seconds 24 --trace 0

Run from the root of a source tree: vibrot is imported from ./src.  One
closed-loop client in one process calls `vibrot.cli.main(["analyze", ...])`
on generated input files, checks every job's outputs, and repeats until
--seconds have passed (a pool of several inputs is only left after a whole
round).  Human-readable lines go first; the last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics of untraced jobs, with
--trace 1 the per-layer metrics of a run that traces every other job.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 7
TAIL_BEYOND = 10

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import vibrot.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

WORKLOADS = ("chain100", "rotor-j200", "small-batch", "trajectory40")  # see README.md
ALL_TASKS = ("modes", "dynamics", "watson-diagnostics", "rotor")


def build_jobs(workload: str, seed: int) -> list:
    """The pool of jobs a workload cycles through, generated from the seed."""
    import numpy as np

    import inputs
    from verify import Job

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "chain100":
        return [Job(inputs.chain("chain100", 100, rng), ("modes", "watson-diagnostics", "rotor"))]
    if workload == "rotor-j200":
        variant = int(rng.integers(len(inputs.WATER_ISOTOPOLOGUES)))
        return [Job(inputs.water(variant), ("rotor",), jmax=200)]
    if workload == "trajectory40":
        return [Job(inputs.chain("trajectory40", 40, rng, samples=4001), ("dynamics",))]
    if workload == "small-batch":
        pool = [
            (inputs.twomass(), ("modes", "dynamics", "rotor")),
            (inputs.water(0), ("modes", "watson-diagnostics", "rotor")),
        ]
        for natoms in range(3, 13):  # fixed sizes, so every seed has the same cost mix
            pool.append((inputs.chain(f"small{natoms}", natoms, rng, samples=201), ALL_TASKS))
        return [Job(inp, tasks, units=u) for inp, tasks in pool for u in ("cm", "natural")]
    raise ValueError(workload)


def percentile_tail(samples: list):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples above it.

    Below 2 * TAIL_BEYOND samples that percentile would lie under the median,
    so the maximum is reported instead, as p100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return 100, xs[-1]
    p = (100 * (n - TAIL_BEYOND)) // n
    rank = -(-p * n // 100)  # nearest rank: ceil(p n / 100)
    return p, xs[rank - 1]


def measure_setup(repeats: int):
    """Median import times of numpy and of vibrot.cli in fresh interpreters.

    Bytecode caches go to a prefix inside the work tree: the first, untimed
    import fills it, so every timed import reads compiled modules, as an
    installed package would, whatever PYTHONDONTWRITEBYTECODE says.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    runs = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            runs.append([float(x) for x in out.stdout.split()])
    numpy_s = statistics.median(r[0] for r in runs)
    vibrot_s = statistics.median(r[1] for r in runs)
    return statistics.median(r[0] + r[1] for r in runs), numpy_s, vibrot_s


def blas_threads() -> str:
    """The BLAS library numpy uses and its thread count, as far as it tells."""
    import numpy as np

    lib_dir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(lib_dir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return f"{Path(path).name} threads={fn()}"
    return "BLAS thread count unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_cli(cli, argv) -> int:
    """cli.main(argv) as an exit code; a traceback counts as exit code 1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def run_loop(jobs, seconds, work_dir, reference, modules, tracer=None):
    """Closed loop over the job pool; returns one record per job run."""
    from verify import verify

    import numpy as np

    cli = modules["cli"]
    records = []
    start = perf_counter()
    i = 0
    while i % len(jobs) or i == 0 or perf_counter() - start < seconds:
        k = i % len(jobs)
        job = jobs[k]
        out_dir = work_dir / f"out{k}"
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in job.files:
            (out_dir / name).unlink(missing_ok=True)
        argv = job.argv(work_dir / job.input_name, out_dir)
        # Every other job; in an even-sized pool the parity flips each round,
        # so each input is traced as often as not.
        flip = i // len(jobs) if len(jobs) % 2 == 0 else 0
        traced = tracer is not None and (i + flip) % 2 == 1
        if traced:
            tracer.install(modules, np.linalg)
            try:
                t0 = perf_counter()
                code = tracer.call_job(i, "cli.main", call_cli, cli, argv)
                elapsed = perf_counter() - t0
            finally:
                tracer.restore()
        else:
            t0 = perf_counter()
            code = call_cli(cli, argv)
            elapsed = perf_counter() - t0
        rss = peak_rss_mb()
        outcome = verify(job, code, out_dir, reference)
        if not outcome.ok:
            print(f"job {i} ({job.inp.name}) failed: {'; '.join(outcome.problems)}",
                  file=sys.stderr)
        records.append({"i": i, "s": elapsed, "traced": traced, "rss": rss,
                        "ok": outcome.ok, "identical": outcome.identical,
                        "bytes": outcome.bytes_written})
        i += 1
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vibrot" / "cli.py").is_file():
        print(f"perfbench: no vibrot sources at {SRC}; run from a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    setup_s, numpy_s, vibrot_s = measure_setup(SETUP_REPEATS)

    import numpy as np

    from vibrot import cli, dynamics, molecule, normalmodes, quadform, rotor, watson
    if Path(cli.__file__).resolve().parent != SRC / "vibrot":
        print(f"perfbench: imported vibrot from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    modules = {"cli": cli, "molecule": molecule, "normalmodes": normalmodes,
               "quadform": quadform, "dynamics": dynamics, "watson": watson, "rotor": rotor}

    import inputs
    import spans
    from verify import Job, prepare

    reference = json.loads((HERE / "reference.json").read_text())["jobs"]
    jobs = [prepare(j) for j in build_jobs(args.workload, args.seed)]
    work_dir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        warm = prepare(Job(inputs.water(0), ("modes", "watson-diagnostics", "rotor")))
        for job in jobs + [warm]:
            (work_dir / job.input_name).write_text(job.inp.text)
        # One untimed water job pays first-call costs.
        run_loop([warm], 0, work_dir, {}, modules)
        # The benchmark's own objects leave the collector's view, so the
        # program's collections cost what they would in a fresh CLI process.
        gc.collect()
        gc.freeze()
        tracer = spans.Tracer() if args.trace else None
        records = run_loop(jobs, args.seconds, work_dir, reference, modules, tracer)
        if tracer is not None:
            tracer.dump(WORK / f"spans-{args.workload}-s{args.seed}.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    untraced = [r["s"] for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]

    print(f"workload {args.workload} seed {args.seed}")
    for job in jobs:
        print(f"  input {job.inp.describe()}; tasks {','.join(job.tasks)}; units {job.units}")
    print(f"  closed loop, 1 client, 1 process; {blas_threads()}; "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    compared = [r for r in records if r["identical"] is not None]
    identical = sum(bool(r["identical"]) for r in compared)
    print(f"  outputs byte-identical to the seed reference: {identical} of {len(compared)} "
          f"compared ({attempted} jobs)")

    if args.trace:
        metrics = per_layer_metrics(tracer, records, untraced, traced, numpy_s, vibrot_s,
                                    identical, len(compared))
    else:
        metrics = end_to_end_metrics(records, untraced, setup_s, attempted, failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(records, times, setup_s, attempted, failed) -> dict:
    ok = sum(r["ok"] for r in records)
    p, tail = percentile_tail(times)
    n = len(times)
    rows = {
        "jobs_per_s": (ok / sum(times), "1/s", f"n={n}, ok jobs / summed job seconds"),
        "job_s_p50": (statistics.median(times), "s", f"n={n}"),
        "job_s_tail": (tail, "s", f"p{p}, n={n}"),
        "peak_rss_mb": (max(r["rss"] for r in records), "MB", "ru_maxrss after the last job"),
        "ok_frac": ((attempted - failed) / attempted, "fraction",
                    f"fail_frac = {failed}/{attempted} = {failed / attempted:g}"),
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh `import vibrot.cli`"),
    }
    for name, (value, unit, note) in rows.items():
        print(f"  {name:12s} {value:12.6g} {unit:9s} ({note})")
    if n <= 30:
        print("  job seconds in order: " + " ".join(f"{t:.3f}" for t in times))
    return {name: (value, unit) for name, (value, unit, _) in rows.items()}


# Per-layer metrics in BENCHMARK.json order: (name, unit); times are self times.
LAYER_METRICS = (
    [(n + ".s", "s/job") for n in (
        "cli.main", "cli.run", "cli.parse_input", "cli.solve_modes", "cli.xyz_frames",
        "cli.emit_json", "cli.levels_text", "cli.trajectory_csv", "cli.write",
        "molecule.build_b_matrix", "molecule.build_g_matrix", "molecule.inertia",
        "normalmodes.solve", "normalmodes.mode_animation",
        "quadform.simultaneous_diagonalize", "quadform.matrix_power",
        "quadform.is_positive_definite",
        "dynamics.trajectory_closed_form",
        "watson.coriolis_data", "watson.coriolis_constants",
        "watson.interaction_coefficients", "watson.inertia_expansion",
        "watson.sum_rule_residuals", "watson.eckart_conditions_check", "watson.watson_u",
        "rotor.rotor_spec_from_inertia", "rotor.asymmetric_levels",
        "rotor.asymmetric_hamiltonian", "rotor.wang_blocks", "rotor.ladder_matrix_elements",
    )]
    + [(n + ".calls", "calls/job") for n in (
        "normalmodes.mode_animation", "quadform.matrix_power", "quadform.is_positive_definite",
        "watson.interaction_coefficients", "rotor.ladder_matrix_elements",
        "linalg.eigh", "linalg.svd", "linalg.cholesky", "linalg.inv",
    )]
    + [
        ("normalmodes.solve.factorizations", "1/solve"),
        ("watson.interaction_coefficients.useful_ratio", "ratio"),
        ("cli.bytes_written", "bytes/job"),
        ("cli.outputs_identical", "count"),
        ("cli.outputs_compared", "count"),
        ("setup.numpy_import_s", "s"),
        ("setup.vibrot_import_s", "s"),
        ("trace.job_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def per_layer_metrics(tracer, records, untraced, traced, numpy_s, vibrot_s,
                      identical, compared) -> dict:
    import spans

    layers = spans.layer_summary(tracer, [r["i"] for r in traced])
    traced_s = [r["s"] for r in traced]
    layers.update({
        "cli.bytes_written": statistics.mean(r["bytes"] for r in records),
        "cli.outputs_identical": identical,
        "cli.outputs_compared": compared,
        "setup.numpy_import_s": numpy_s,
        "setup.vibrot_import_s": vibrot_s,
        "trace.job_s": statistics.mean(traced_s) if traced_s else 0.0,
        "trace.overhead_frac": (
            statistics.median(traced_s) / statistics.median(untraced) - 1.0
            if traced_s and untraced else 0.0
        ),
    })
    self_sum = sum(v for k, v in layers.items() if k.endswith(".s") and k != "trace.job_s")
    print(f"  traced jobs {len(traced_s)}, untraced {len(untraced)}; summed self time "
          f"{self_sum:.6f} s/job against mean traced job {layers['trace.job_s']:.6f} s")
    metrics = {name: (float(layers.get(name, 0.0)), unit) for name, unit in LAYER_METRICS}
    for name, (value, unit) in metrics.items():
        print(f"  {name:46s} {value:14.6g} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
