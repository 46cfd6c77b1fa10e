"""Record the current code's outputs as the benchmark's reference.

    python3 perfbench/make_reference.py [--commit ID]

Run from the root of a source tree.  For every job of every workload at
seeds 0-19 (the rotor-j200 pool covers all six water isotopologues) it runs
`vibrot analyze` once and stores, keyed by the job's input text and
arguments, the digest of the output files.  For the fixed inputs (the
fixtures and the isotopologues) it also stores the frequencies and the rotor
levels up to J = 10, which verify.py compares within tolerance.

reference.json was written from vibrot at commit d9faba5.  Regenerate it
only to move the reference on purpose, and say so where the change is
recorded, because `cli.outputs_identical` counts against it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run

SEEDS = range(20)
LEVELS_JMAX = 10


def reference_jobs() -> list:
    import inputs
    from verify import Job

    jobs = {}
    for workload in ("chain100", "trajectory40", "small-batch"):
        for seed in SEEDS:
            for job in run.build_jobs(workload, seed):
                jobs[job.key] = job
    for variant in range(len(inputs.WATER_ISOTOPOLOGUES)):
        job = Job(inputs.water(variant), ("rotor",), jmax=200)
        jobs[job.key] = job
    return list(jobs.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", default="unknown", help="code version being recorded")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    from vibrot import cli

    import verify

    work = run.WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    entries = {}
    try:
        for n, job in enumerate(reference_jobs()):
            path = work / job.input_name
            path.write_text(job.inp.text)
            out = work / f"out{n}"
            code = cli.main(job.argv(path, out))
            if code != 0:
                print(f"{job.inp.name}: exit code {code}", file=sys.stderr)
                return 1
            entry = {"input": job.inp.name, "args": " ".join(job.args()),
                     "digest": verify.digest(out, job.files)}
            if not job.inp.generated:
                report = json.loads((out / "report.json").read_text())
                if "modes" in report:
                    entry["frequencies"] = report["modes"]["frequencies"]
                if "rotor" in report:
                    entry["levels"] = [lv["energy"] for lv in report["rotor"]["levels"]
                                       if lv["j"] <= LEVELS_JMAX]
            entries[job.key] = entry
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"source": f"vibrot at commit {args.commit}", "jobs": entries}
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} reference entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
