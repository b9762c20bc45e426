"""Record the expected outputs the benchmark checks against.

    python3 bench/record_golden.py

Run from the root of a checkout.  Writes, under bench/golden/:

* verify-paper.txt: stdout of ``superbialg verify-paper --format machine``
  (refused unless it hashes to the sha256 pinned in workloads.py);
* classify.json: nullity, coboundary dimension and co-Jacobi constraints of
  both cocycle spaces;
* tables.json: the basis tables each random table family is a linear
  combination of, the nine named tables, and the sha256 of the tables pass
  for each of its TABLES_INPUT_SETS input sets.

Recording is a deliberate act: the files pin the behaviour of the commit
they were recorded at, and a later change that alters an output must show
up as a benchmark failure, not be re-recorded away.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def basis_table(kind, wedges):
    from superbialg import algebra, poisson, tensors
    osp = kind == "osp-r-a"
    alg = algebra.builtin("osp12" if osp else "super_e2")
    r = tensors.RMatrix.from_wedges(alg, wedges)
    grp = poisson.group("osp" if osp else "super-e2")
    return poisson.format_table(poisson.coboundary_structure(
        grp, r, display_scale=2 if osp else 1))


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import workloads
    golden = workloads.GOLDEN
    os.makedirs(golden, exist_ok=True)

    code, text = workloads.run_job(("verify-paper", ()))
    if code != 0 or hashlib.sha256(text.encode()).hexdigest() \
            != workloads.VERIFY_PAPER_SHA256:
        raise SystemExit("verify-paper output does not match the pinned sha256")
    with open(os.path.join(golden, "verify-paper.txt"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write(text)

    cocycles = {}
    for name in ("osp12", "super_e2"):
        nullity, cob_dim, count, sha = workloads.run_job(("cocycles", name))
        cocycles[name] = {"nullity": nullity, "coboundary_dim": cob_dim,
                          "constraints": count, "constraints_sha256": sha}
    with open(os.path.join(golden, "classify.json"), "w") as fh:
        json.dump({"cocycles": cocycles}, fh, indent=1)
        fh.write("\n")

    tables = {
        "basis": {kind: {name: basis_table(kind, wedges)
                         for name, wedges in directions}
                  for kind, directions in workloads.BASIS.items()},
        "named": {":".join(pair): workloads.run_job(("table:named", pair))
                  for pair in workloads.NAMED},
        "input_set_sha256": {},
    }
    for seed in range(1, workloads.TABLES_INPUT_SETS + 1):
        jobs = workloads.make_jobs("tables", seed)
        tables["input_set_sha256"][str(seed)] = workloads.output_digest(
            [workloads.run_job(job) for job in jobs])
    with open(os.path.join(golden, "tables.json"), "w") as fh:
        json.dump(tables, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
