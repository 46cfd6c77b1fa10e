"""In-memory span tracer that wraps vibrot's functions from the outside.

Each wrapper is installed in the namespace where its caller looks the
function up (a module attribute, a class attribute, `numpy.linalg`), so the
program's source stays untouched.  `Tracer.restore` puts every original
object back.  A span is a list [name, start_ns, end_ns, parent, job]; spans
are kept in memory and written out once, after the run.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter_ns

# numpy.linalg entry points counted (not timed) at the kernel boundary; the
# factorizations among them also count against an enclosing GF solve.
LINALG_COUNTED = ("eigh", "eigvalsh", "svd", "cholesky", "qr", "inv")
FACTORIZATIONS = frozenset(("eigh", "eigvalsh", "svd", "cholesky", "qr"))
SOLVE = "normalmodes.solve"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = defaultdict(Counter)   # job -> Counter(name -> n)
        self.factorizations = Counter()      # job -> factorizations inside a solve
        self.distinct = defaultdict(set)     # (job, name) -> argument identities
        self._saved = []                     # (owner, attr, original or None)

    # -- installation ---------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, new)

    def span(self, owner, attr, name, recursive=False, distinct_args=None):
        """Time every call of owner.attr as a span called `name`.

        recursive: only the outermost call is a span; while it runs the
        original is put back, so inner calls pay no wrapper cost.
        distinct_args: how many leading arguments identify a computation;
        repeated identities show up as wasted calls.
        """
        fn = getattr(owner, attr)
        raw = vars(owner)[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if distinct_args:
                key = tuple(id(a) for a in args[:distinct_args])
                tracer.distinct[(tracer.job, name)].add(key)
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [name, 0, 0, parent, tracer.job]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            if recursive:
                setattr(owner, attr, raw)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                if recursive:
                    setattr(owner, attr, wrapper)
                tracer.stack.pop()

        self._replace(owner, attr, wrapper)

    def count(self, owner, attr, name):
        """Count calls of owner.attr without timing them."""
        fn = getattr(owner, attr)
        tracer = self
        factorization = attr in FACTORIZATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[tracer.job][name] += 1
            if factorization and any(tracer.spans[i][0] == SOLVE for i in tracer.stack):
                tracer.factorizations[tracer.job] += 1
            return fn(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def install(self, vibrot_modules, linalg):
        """Wrap the CLI pipeline's layer boundaries; see README for the names."""
        cli, mo, nm, qf, dyn, wa, ro = (
            vibrot_modules[k]
            for k in ("cli", "molecule", "normalmodes", "quadform", "dynamics", "watson", "rotor")
        )
        for attr, name in (
            ("run", "cli.run"),
            ("parse_input", "cli.parse_input"),
            ("_solve_modes", "cli.solve_modes"),
            ("_xyz_frames", "cli.xyz_frames"),
            ("_levels_text", "cli.levels_text"),
            ("_trajectory_csv", "cli.trajectory_csv"),
        ):
            self.span(cli, attr, name)
        self.span(cli, "emit_json", "cli.emit_json", recursive=True)
        self.span(cli._Outputs, "write", "cli.write")
        for attr in ("build_b_matrix", "build_g_matrix", "inertia"):
            self.span(mo, attr, "molecule." + attr)
        for attr in ("solve", "mode_animation"):
            self.span(nm, attr, "normalmodes." + attr)
        for attr in ("simultaneous_diagonalize", "matrix_power", "is_positive_definite"):
            self.span(qf, attr, "quadform." + attr)
        self.span(dyn, "trajectory_closed_form", "dynamics.trajectory_closed_form")
        for attr in (
            "eckart_conditions_check",
            "coriolis_data",
            "coriolis_constants",
            "sum_rule_residuals",
            "inertia_expansion",
            "watson_u",
        ):
            self.span(wa, attr, "watson." + attr)
        self.span(
            wa, "interaction_coefficients", "watson.interaction_coefficients", distinct_args=2
        )
        for attr in (
            "asymmetric_levels",
            "asymmetric_hamiltonian",
            "wang_blocks",
            "ladder_matrix_elements",
            "rotor_spec_from_inertia",
        ):
            self.span(ro, attr, "rotor." + attr)
        for attr in LINALG_COUNTED:
            self.count(linalg, attr, "linalg." + attr)

    # -- jobs -------------------------------------------------------------------

    def call_job(self, job_id, name, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self.job = job_id
        rec = [name, 0, 0, -1, job_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            rec[2] = perf_counter_ns()
            self.stack.pop()
            self.job = None

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                "parent": parent, "job": job}) + "\n"
                )


def self_times(spans) -> list:
    """Self time in ns of every span: its duration minus its children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_summary(tracer: Tracer, jobs) -> dict:
    """Per-layer figures over the traced jobs.

    NAME.s      self seconds per job (these add up to the mean job time)
    NAME.calls  calls per job, over the jobs that made at least one
    NAME.useful_ratio  distinct argument identities per call
    normalmodes.solve.factorizations  numpy.linalg factorizations per solve
    """
    jobs = list(jobs)
    if not jobs:
        return {}
    job_set = set(jobs)
    self_ns = Counter()
    calls = Counter()
    calling_jobs = defaultdict(set)
    for (name, _, _, _, job), own in zip(tracer.spans, self_times(tracer.spans)):
        if job in job_set:
            self_ns[name] += own
            calls[name] += 1
            calling_jobs[name].add(job)
    for job in jobs:
        for name, n in tracer.counts[job].items():
            calls[name] += n
            calling_jobs[name].add(job)
    out = {}
    for name, ns in self_ns.items():
        out[name + ".s"] = ns / 1e9 / len(jobs)
    for name, n in calls.items():
        out[name + ".calls"] = n / len(calling_jobs[name])
    distinct = Counter()
    for (job, name), keys in tracer.distinct.items():
        if job in job_set:
            distinct[name] += len(keys)
    for name, n in distinct.items():
        out[name + ".useful_ratio"] = n / calls[name]
    if calls[SOLVE]:
        out[SOLVE + ".factorizations"] = sum(tracer.factorizations[j] for j in jobs) / calls[SOLVE]
    return out
