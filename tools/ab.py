"""Time the jobs of a benchmark workload on another source tree and this one, in one process.

    python tools/ab.py OLD_TREE --workload trajectory40 --rounds 60

Loads OLD_TREE/src/vibrot and this checkout's src/vibrot under two package
names (vibrot uses only relative imports), builds the workload's jobs with
perfbench/run.py's build_jobs (imported, not changed), and runs every job of
the pool once per side per round, after two untimed rounds.  The side that
goes first alternates from round to round, and every round asserts that
each job exits 0 on both sides and that both sides wrote the same bytes.
Prints the new/old ratio of each round's job time as its median and
quartiles, the rounds that the new side won, and each side's median round
time.  The two trees share the process, its BLAS and its caches, so the
host's slow and fast episodes hit both sides alike; a gate still needs
perfbench/run.py's own numbers.  No bytecode is written.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("old", "new")


def load_cli(tree: Path, name: str):
    """The cli module of tree/src/vibrot, imported as the package name."""
    package = tree / "src" / "vibrot"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def workload_jobs(workload: str, seed: int) -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import build_jobs

    return build_jobs(workload, seed)


def run_side(cli, jobs, work: Path, side: str):
    """(seconds, [{file name: bytes}]) of one pass over the jobs, outputs in
    work/side; AssertionError if a job does not exit 0."""
    outputs, elapsed = [], 0.0
    for k, job in enumerate(jobs):
        out = work / side / f"out{k}"
        shutil.rmtree(out, ignore_errors=True)
        argv = job.argv(work / job.input_name, out)
        t0 = perf_counter()
        code = cli.main(argv)
        elapsed += perf_counter() - t0
        if code != 0:
            raise AssertionError(f"{side}: job {k} ({job.input_name}) exited {code}")
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    return elapsed, outputs


def compare(clis: dict, jobs: list, rounds: int, work: Path) -> list:
    """[{side: seconds}] per round; AssertionError where the sides' outputs differ."""
    for job in jobs:
        (work / job.input_name).write_text(job.inp.text, encoding="utf-8")
    times = []
    for r in range(rounds):
        order = SIDES if r % 2 else SIDES[::-1]
        got = {side: run_side(clis[side], jobs, work, side) for side in order}
        if got["old"][1] != got["new"][1]:
            raise AssertionError(f"round {r}: the two trees' outputs differ")
        times.append({side: got[side][0] for side in SIDES})
    return times


def summary(times: list) -> str:
    ratios = [t["new"] / t["old"] for t in times]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    won = sum(t["new"] < t["old"] for t in times)
    old, new = (statistics.median(t[side] for t in times) for side in SIDES)
    return (f"new/old {median:.3f} (quartiles {q1:.3f}-{q3:.3f}), new faster in {won} of "
            f"{len(times)} rounds; median round old {1e3 * old:.2f} ms, new {1e3 * new:.2f} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_tree", type=Path, help="source tree with src/vibrot to compare with")
    parser.add_argument("--workload", default="trajectory40",
                        help="perfbench workload (default trajectory40)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--rounds", type=int, default=40, help="rounds (default 40)")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave both trees and perfbench/ as they are
    clis = {"old": load_cli(args.old_tree.resolve(), "vibrot_old"),
            "new": load_cli(ROOT, "vibrot_new")}
    jobs = workload_jobs(args.workload, args.seed)
    work = Path(tempfile.mkdtemp())
    try:
        compare(clis, jobs, 2, work)  # warm-up: caches, lazy tables, first-use layouts
        gc.collect()
        gc.freeze()  # as perfbench/run.py does before its loop
        print(summary(compare(clis, jobs, args.rounds, work)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
