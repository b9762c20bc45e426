"""Seeded job streams of the three benchmark workloads, and their checks.

A job is a plain tuple ``(kind, params)`` drawn from ``random.Random(seed)``;
the library only ever sees the generated values.  ``run_job`` performs one
job through the public API and returns a small, comparable output;
``Expectations`` states what the paper says that output must be, and
``failures`` compares the two after the timed pass.

Workloads:

* ``verify-paper``: one job, the ``verify-paper --format machine`` command;
  its stdout is compared line by line with ``golden/verify-paper.txt``.
* ``classify``: bialgebra-side jobs at random rational points, checked
  against closed-form expectations (no Poisson brackets are involved).
* ``tables``: bracket tables of coboundary structures at random rational
  points plus the nine named tables.  A bracket table is linear in the
  r-matrix components, so every random table is checked against the same
  combination of basis tables recorded in ``golden/tables.json``; the named
  tables are compared with their recorded text, and the sha256 of a whole
  pass with the value recorded for its input set.  There are
  TABLES_INPUT_SETS recorded input sets; seed s draws set (s - 1) mod
  TABLES_INPUT_SETS + 1, so every seed is checked against a recorded digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("verify-paper", "classify", "tables")

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")

# sha256 of `superbialg verify-paper --format machine` stdout
VERIFY_PAPER_SHA256 = (
    "8b1877c9e9f34e15d2832186f576a5796d13328ff00da4f3eca97752addd9051")

CYBE, MCYBE = "CYBE", "mCYBE"

# classify: jobs of each kind in one pass (the order is shuffled by seed).
# Four jobs for each outcome the paper's closed forms tell apart: case A and
# e2-r-a (a*b a square) have one, case B (c*d = 0 or not) and osp-r-a
# (x^2 = y*z or not) have two.  The two cocycle runs take no seeded input
# and run once each, as a user's run would.
CLASSIFY_MIX = {"case-a": 4, "case-b": 8, "osp-r-a": 8, "e2-r-a": 4}
COCYCLE_ALGEBRAS = ("osp12", "super_e2")
# tables: random coboundary structures of each family in one pass
TABLES_MIX = {"osp-r-a": 40, "e2-r-a": 40, "e2-r-b": 40}
# tables: input sets whose pass digest golden/tables.json records
TABLES_INPUT_SETS = 100
NAMED = [("osp", s) for s in ("1", "2", "3")] + \
    [("super-e2", s) for s in ("i", "ii", "iii", "iv", "v", "vi")]

# tables: the r-matrix directions each family is linear in
BASIS = {
    "osp-r-a": [("x", [(1, "X+", "X-"), (2, "V+", "V-")]),
                ("y", [(1, "H", "X+"), (-1, "V+", "V+")]),
                ("z", [(1, "H", "X-"), (-1, "V-", "V-")])],
    "e2-r-a": [("a", [(1, "H", "P+")]), ("b", [(-1, "H", "P-")]),
               ("m", [(1, "D+", "D-")]), ("f", [(1, "P+", "P-")])],
    "e2-r-b": [("a", [(1, "H", "P+"), (Fraction(-1, 2), "D+", "D+")]),
               ("b", [(-1, "H", "P-"), (Fraction(-1, 2), "D-", "D-")]),
               ("f", [(1, "P+", "P-")])],
}


# -- inputs ---------------------------------------------------------------

def _q(rng, zero=False):
    """A random rational with a small numerator and denominator."""
    while True:
        num = rng.randint(-9, 9)
        if num or zero:
            return Fraction(num, rng.randint(1, 6))


def _square_pair(rng):
    """(a, b) with a*b the square of a rational (b = 0 now and then)."""
    s, u, v = _q(rng), _q(rng), _q(rng)
    a = s * u * u
    b = Fraction(0) if rng.random() < 0.15 else s * v * v
    return (b, a) if rng.random() < 0.5 else (a, b)


def _sl2(rng):
    """(a, b, c, d) with a*d - b*c = 1."""
    a, b, c = _q(rng), _q(rng, zero=True), _q(rng, zero=True)
    return a, b, c, (1 + b * c) / a


def _osp_r_a_point(rng, cybe):
    """(x, y, z) with x^2 = y*z exactly when `cybe`."""
    if cybe:
        s, u, v = _q(rng), _q(rng), _q(rng)
        return rng.choice((1, -1)) * s * u * v, s * u * u, s * v * v
    while True:
        x, y, z = _q(rng, zero=True), _q(rng), _q(rng)
        if x * x != y * z:
            return x, y, z


def _classify_jobs(rng):
    jobs = []
    for _ in range(CLASSIFY_MIX["case-a"]):
        a, b = _square_pair(rng)
        jobs.append(("case-a", (a, b, _q(rng, zero=True),
                                rng.choice((1, -1)))))
    for i in range(CLASSIFY_MIX["case-b"]):
        c, d = _q(rng), _q(rng)
        if i % 2 == 0:   # half of the points lie on c*d = 0
            c, d = (c, Fraction(0)) if rng.random() < 0.5 else (Fraction(0), d)
        jobs.append(("case-b", (_q(rng, zero=True), _q(rng, zero=True), c, d)))
    for i in range(CLASSIFY_MIX["osp-r-a"]):
        jobs.append(("osp-r-a", (_osp_r_a_point(rng, i % 2 == 0), _sl2(rng))))
    for _ in range(CLASSIFY_MIX["e2-r-a"]):
        a, b = _square_pair(rng)
        jobs.append(("e2-r-a", (a, b, _q(rng, zero=True),
                                rng.choice((1, -1)))))
    jobs.extend(("cocycles", name) for name in COCYCLE_ALGEBRAS)
    rng.shuffle(jobs)
    return jobs


def _tables_jobs(rng):
    jobs = []
    for _ in range(TABLES_MIX["osp-r-a"]):
        jobs.append(("table:osp-r-a", (_q(rng, zero=True), _q(rng, zero=True),
                                       _q(rng, zero=True))))
    for _ in range(TABLES_MIX["e2-r-a"]):
        a, b = _square_pair(rng)
        jobs.append(("table:e2-r-a", (a, b, _q(rng, zero=True),
                                      rng.choice((1, -1)))))
    for _ in range(TABLES_MIX["e2-r-b"]):
        jobs.append(("table:e2-r-b", (_q(rng, zero=True), _q(rng, zero=True),
                                      _q(rng, zero=True))))
    jobs.extend(("table:named", pair) for pair in NAMED)
    rng.shuffle(jobs)
    return jobs


def tables_input_set(seed):
    """The recorded input set (1..TABLES_INPUT_SETS) that `seed` draws."""
    return (seed - 1) % TABLES_INPUT_SETS + 1


def make_jobs(workload, seed):
    """The job list of one pass; the same seed gives the same list."""
    if workload == "verify-paper":
        return [("verify-paper", ())]
    if workload == "classify":
        return _classify_jobs(random.Random(f"classify:{seed}"))
    if workload == "tables":
        return _tables_jobs(random.Random(f"tables:{tables_input_set(seed)}"))
    raise ValueError(f"unknown workload {workload!r}")


# -- set-up and jobs --------------------------------------------------------

def setup():
    """Build what every workload needs before its first job: the claims
    manifest, both builtin algebras and both coordinate groups (through
    the first named structure of each).  Returns per-step seconds."""
    import time
    t0 = time.perf_counter()
    from superbialg import algebra, claims, poisson
    t1 = time.perf_counter()
    claims.load_claims()
    t2 = time.perf_counter()
    algebra.builtin("osp12")
    algebra.builtin("super_e2")
    t3 = time.perf_counter()
    poisson.group("osp")
    poisson.group("super-e2")
    t4 = time.perf_counter()
    poisson.named_structure("osp", "1")
    poisson.named_structure("super-e2", "i")
    t5 = time.perf_counter()
    return {"import": t1 - t0, "claims": t2 - t1, "builtin": t3 - t2,
            "group_build": t4 - t3, "structures": t5 - t4}


def _family_table(kind, params):
    from superbialg import bialgebra, poisson
    if kind == "named":
        return poisson.format_table(poisson.named_structure(*params))
    if kind == "osp-r-a":
        r = bialgebra.family("osp-r-a", x=params[0], y=params[1], z=params[2])
        return poisson.format_table(poisson.coboundary_structure(
            poisson.group("osp"), r, display_scale=2))
    if kind == "e2-r-a":
        a, b, f, branch = params
        r = bialgebra.family("e2-r-a", a=a, b=b, f=f, branch=branch)
    else:
        r = bialgebra.family("e2-r-b", a=params[0], b=params[1], f=params[2])
    return poisson.format_table(poisson.coboundary_structure(
        poisson.group("super-e2"), r))


def _failing_coboundary_axioms(algebra, r):
    from superbialg import bialgebra
    d = bialgebra.coboundary_delta(algebra, r)
    return bialgebra.check_cobracket(algebra, d).failing_axioms()


def run_job(job):
    """Perform one job through the public API and return its output."""
    from superbialg import (algebra, bialgebra, cli, cocycles, equivalence,
                            poisson)
    kind, params = job
    if kind == "verify-paper":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify-paper", "--format", "machine"])
        return code, buf.getvalue()
    if kind == "case-a":
        a, b, c, branch = params
        d = bialgebra.family("e2-case-a", a=a, b=b, c=c, branch=branch)
        return bialgebra.check_cobracket(algebra.builtin("super_e2"),
                                         d).failing_axioms()
    if kind == "case-b":
        a, b, c, dd = params
        d = bialgebra.family("e2-case-b", a=a, b=b, c=c, d=dd)
        return bialgebra.check_cobracket(algebra.builtin("super_e2"),
                                         d).failing_axioms()
    if kind == "osp-r-a":
        (x, y, z), fermion = params
        osp = algebra.builtin("osp12")
        r = bialgebra.family("osp-r-a", x=x, y=y, z=z)
        moved = equivalence.transform(equivalence.osp_automorphism(*fermion), r)
        return (bialgebra.cybe_status(osp, r), bialgebra.cybe_status(osp, moved),
                _failing_coboundary_axioms(osp, moved))
    if kind == "e2-r-a":
        a, b, f, branch = params
        r = bialgebra.family("e2-r-a", a=a, b=b, f=f, branch=branch)
        return _failing_coboundary_axioms(algebra.builtin("super_e2"), r)
    if kind == "cocycles":
        alg = algebra.builtin(params)
        system, fam = cocycles.solve_cocycle_space(alg)
        _, cob_vectors = cocycles.coboundary_space(alg)
        _, constraints = cocycles.cojacobi_constraints(fam)
        text = "\n".join(p.render() for p in constraints)
        return (fam.nullity, len(cob_vectors), len(constraints),
                hashlib.sha256(text.encode()).hexdigest())
    if kind.startswith("table:"):
        return _family_table(kind[len("table:"):], params)
    raise ValueError(f"unknown job kind {kind!r}")


# -- expectations -------------------------------------------------------------

def _load_json(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


def golden_verify_paper():
    """The recorded verify-paper stdout, as lines; its hash is checked."""
    with open(os.path.join(GOLDEN, "verify-paper.txt"), "rb") as fh:
        data = fh.read()
    if hashlib.sha256(data).hexdigest() != VERIFY_PAPER_SHA256:
        raise RuntimeError("golden/verify-paper.txt does not hash to the "
                           "recorded sha256")
    return data.decode().splitlines()


class Expectations:
    """What the paper says each job must return (loaded lazily, after the
    timed pass)."""

    def __init__(self):
        self._verify = None
        self._classify = None
        self._tables = None
        self._basis_values = {}

    @property
    def verify_lines(self):
        if self._verify is None:
            self._verify = golden_verify_paper()
        return self._verify

    @property
    def classify(self):
        if self._classify is None:
            self._classify = _load_json("classify.json")
        return self._classify

    @property
    def tables(self):
        if self._tables is None:
            self._tables = _load_json("tables.json")
        return self._tables

    def verify_paper_mismatch(self, output):
        code, text = output
        lines, golden = text.splitlines(), self.verify_lines
        if code != 0:
            return f"exit code {code}"
        if len(lines) != len(golden):
            return f"{len(lines)} lines, golden has {len(golden)}"
        bad = [i for i, (got, want) in enumerate(zip(lines, golden)) if got != want]
        if bad:
            return f"{len(bad)} line(s) differ, first at line {bad[0] + 1}"
        return None

    def classify_expected(self, job):
        kind, params = job
        if kind in ("case-a", "e2-r-a"):
            return []          # a square a*b: all four axioms hold
        if kind == "case-b":
            _, _, c, d = params
            return [] if c * d == 0 else ["cojacobi"]
        if kind == "osp-r-a":
            (x, y, z), _ = params
            status = CYBE if x * x == y * z else MCYBE
            return (status, status, [])  # transport keeps the status
        if kind == "cocycles":
            rec = self.classify["cocycles"][params]
            return (rec["nullity"], rec["coboundary_dim"], rec["constraints"],
                    rec["constraints_sha256"])
        raise ValueError(f"unknown classify job {kind!r}")

    def _basis(self, kind):
        """Recorded basis tables as parsed rows: [(direction, [rows])]."""
        if kind not in self._basis_values:
            from superbialg import poisson
            grp = poisson.group("osp" if kind == "osp-r-a" else "super-e2")
            self._basis_values[kind] = [
                (name, [grp.parse(line.split(" = ", 1)[1])
                        for line in self.tables["basis"][kind][name].splitlines()])
                for name, _ in BASIS[kind]]
        return self._basis_values[kind]

    def table_expected(self, job):
        kind, params = job
        kind = kind[len("table:"):]
        if kind == "named":
            return self.tables["named"][":".join(params)]
        if kind == "e2-r-a":
            a, b, f, branch = params
            from superbialg.scalars import rational_sqrt
            m = branch * rational_sqrt(a * b)
            coeff = {"a": a, "b": b, "m": m, "f": f}
        else:
            coeff = dict(zip([name for name, _ in BASIS[kind]], params))
        heads = [line.split(" = ", 1)[0] for line in
                 self.tables["basis"][kind][BASIS[kind][0][0]].splitlines()]
        (first, values), *rest = self._basis(kind)
        rows = [coeff[first] * v for v in values]
        for name, values in rest:
            rows = [r + coeff[name] * v for r, v in zip(rows, values)]
        return "\n".join(f"{h} = {v.render()}" for h, v in zip(heads, rows))

    def mismatch(self, job, output):
        kind = job[0]
        if kind == "verify-paper":
            return self.verify_paper_mismatch(output)
        if kind.startswith("table:"):
            want = self.table_expected(job)
        else:
            want = self.classify_expected(job)
        if output != want:
            return f"{kind} {job[1]}: got {output!r}, expected {want!r}"
        return None


def output_digest(outputs):
    """sha256 over the outputs of one pass, in job order."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(repr(out).encode())
        h.update(b"\0")
    return h.hexdigest()


def failures(workload, seed, jobs, outputs, expect=None):
    """(wrong_jobs, problems): one description per job whose output is
    wrong, and the checks of the whole pass that fail.  Both are empty when
    everything holds."""
    expect = expect if expect is not None else Expectations()
    bad, problems = [], []
    for job, out in zip(jobs, outputs):
        if isinstance(out, BaseException):
            bad.append(f"{job[0]} {job[1]}: raised {out!r}")
            continue
        problem = expect.mismatch(job, out)
        if problem:
            bad.append(problem)
    if workload == "tables":
        key = str(tables_input_set(seed))
        recorded = expect.tables["input_set_sha256"].get(key)
        if recorded is None:
            problems.append(f"no pass digest recorded for input set {key}")
        elif recorded != output_digest(outputs):
            problems.append(f"pass digest differs from the one recorded for "
                            f"input set {key}")
    return bad, problems
