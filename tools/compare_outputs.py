"""Compare every output of `vibrot analyze` between another source tree and this one.

    python tools/compare_outputs.py OLD_TREE

Runs `python -m vibrot.cli analyze` from OLD_TREE/src and from this
checkout's src, each with OpenBLAS at 1 and at 2 threads, on these cases:

- the three fixtures in tests/fixtures, each task alone and then every task
  that exits 0 alone (OLD_TREE, 1 thread) together, in both unit modes;
- the jobs of every benchmark workload at seeds 1 and 2, from
  perfbench/run.py's build_jobs (imported, not changed);
- a 200-atom chain, perfbench's inputs.chain(..., 200, default_rng([1, 0]));
- the dynamics of an 8-atom chain with its initial displacements and
  velocities scaled by 1e-30 and by 1e150, so that trajectory.csv holds
  values below 1e-10 (two-product scaling) and below 1e-32, and 3-digit
  exponents, whose cells are wider than the table's (1e200 would overflow
  the energy and be refused);
- usage errors: an unknown unit mode, a --jmax that is not a number, input
  that is not UTF-8 and an input file name that is not UTF-8.

A case compares the exit code, stderr and the name and bytes (by SHA-256)
of every output file of the four runs against OLD_TREE at 1 thread.  All
runs work in one temporary directory, deleted at the end.  One line is
printed per case that differs, naming the runs and what differs; the exit
status is 1 if any case differs, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
TASKS = ("modes", "dynamics", "watson-diagnostics", "rotor")
UNITS = ("cm", "natural")
THREADS = ("1", "2")


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run(tree: Path, threads: str, input_path: Path, args: list, cwd: Path):
    """(exit code, stderr, {file name: SHA-256}) of one run, outputs in cwd/out."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-m", "vibrot.cli", "analyze", str(input_path),
                           "--out", "out", *args], cwd=cwd, env=env, capture_output=True)
    out = cwd / "out"
    files = {p.name: digest(p) for p in sorted(out.iterdir())} if out.exists() else {}
    shutil.rmtree(cwd)
    return proc.returncode, proc.stderr, files


def differences(want, got) -> list:
    code, err, files = want
    found = [f"exit {code} -> {got[0]}"] if got[0] != code else []
    found += ["stderr"] if got[1] != err else []
    found += [name for name in sorted(set(files) | set(got[2]))
              if files.get(name) != got[2].get(name)]
    return found


def compare(old: Path, cases: list, work: Path) -> dict:
    """{case name: (old tree's result at 1 thread, [(run, differences)])}."""
    runs = [(name, tree, label, threads, path, args)
            for name, path, args in cases
            for tree, label in ((old, "old"), (ROOT, "new")) for threads in THREADS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(
            lambda r: run(r[1], r[3], r[4], r[5], work / "runs" / r[0] / f"{r[2]}{r[3]}"),
            runs))
    out = {}
    for (name, _, label, threads, _, _), result in zip(runs, results):
        base, diffs = out.setdefault(name, (result, []))
        found = differences(base, result)
        if found:
            diffs.append((f"{label}@{threads}", found))
    return out


def benchmark_cases(inputs_dir: Path) -> list:
    """(name, input path, args) of the workload jobs and the 200-atom chain."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import numpy as np

    import inputs
    from run import WORKLOADS, build_jobs
    from verify import Job

    jobs = [(f"{w}-s{seed}-{k}", job) for w in WORKLOADS for seed in (1, 2)
            for k, job in enumerate(build_jobs(w, seed))]
    chain = inputs.chain("chain200", 200, np.random.default_rng([1, 0]))
    jobs.append(("chain200", Job(chain, ("modes", "watson-diagnostics", "rotor"))))
    small = inputs.chain("chain8", 8, np.random.default_rng([1, 1]), samples=201)
    texts = [(name, job.inp.text, job) for name, job in jobs]
    texts += [(f"chain8-ic{scale:g}", scaled_dynamics(small.text, scale), Job(small, ("dynamics",)))
              for scale in (1e-30, 1e150)]
    cases = []
    for name, text, job in texts:
        path = inputs_dir / name / job.input_name
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        cases.append((name, path, job.args()))
    return cases


def scaled_dynamics(text: str, scale: float) -> str:
    """An input's text with every kappa and beta value times scale."""
    lines = []
    for line in text.splitlines():
        key, _, values = line.partition(" = ")
        if key in ("kappa", "beta"):
            line = key + " = " + " ".join(repr(float(v) * scale) for v in values.split())
        lines.append(line)
    return "\n".join(lines) + "\n"


def error_cases(inputs_dir: Path) -> list:
    bad_text = inputs_dir / "not-utf8" / "bad.inp"
    bad_text.parent.mkdir(parents=True)
    bad_text.write_bytes(b"[atoms]\nO 15.999 0 0 0\xff\n")
    bad_name = inputs_dir / "name" / os.fsdecode(b"tw\xffo.inp")
    bad_name.parent.mkdir(parents=True)
    shutil.copyfile(FIXTURES / "twomass.inp", bad_name)
    water = FIXTURES / "water.inp"
    return [("units-unknown", water, ["--units", "parsecs"]),
            ("jmax-not-a-number", water, ["--jmax", "abc"]),
            ("content-not-utf8", bad_text, []),
            ("name-not-utf8", bad_name, ["--tasks", "modes,dynamics,rotor"])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path, help="source tree with src/vibrot to compare with")
    args = parser.parse_args(argv)
    old = args.old_tree.resolve()
    work = Path(tempfile.mkdtemp())
    try:
        fixture_runs = {
            (fixture, units): [(f"{fixture.stem}-{units}-{task}", fixture,
                                ["--tasks", task, "--units", units]) for task in TASKS]
            for fixture in sorted(FIXTURES.glob("*.inp")) for units in UNITS}
        cases = [case for alone in fixture_runs.values() for case in alone]
        cases += benchmark_cases(work / "inputs") + error_cases(work / "inputs")
        results = compare(old, cases, work)
        together = []
        for (fixture, units), alone in fixture_runs.items():
            tasks = [t for t, (name, _, _) in zip(TASKS, alone) if results[name][0][0] == 0]
            together.append((f"{fixture.stem}-{units}-together", fixture,
                             ["--tasks", ",".join(tasks), "--units", units]))
        results.update(compare(old, together, work))
        failed = 0
        for name, (_, diffs) in results.items():
            if diffs:
                failed += 1
                print(f"{name}: " + "; ".join(f"{r}: {', '.join(d)}" for r, d in diffs))
        print(f"{failed} of {len(results)} cases differ")
        return 1 if failed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
