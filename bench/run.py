"""The superbialg benchmark.

    python3 bench/run.py --workload {verify-paper,classify,tables,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One process with one thread runs the
seeded jobs of a workload as a closed loop with one client: the next job
starts only after the previous one ends.  Each repetition of the job list
runs in a fresh interpreter (bench/worker.py), as a user's CLI run does;
repetitions follow one another until the next one would end after S
seconds (there is always at least one).

``--trace 0`` reports the end-to-end metrics, medians over repetitions:
``setup_s``, ``wall_s``, ``job_p50_ms``, ``job_p90_ms`` and ``peak_rss_mb``.
``--trace 1`` alternates an untraced repetition (which also runs the scalar
probes) with a traced one, and reports the per-layer metrics of
BENCHMARK.json.  Every job's output is checked; a line with the run's stamp
(source hash, Python, cores, load average) and a table of the metrics
precede the result, which is the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
# set-up is short and noisy: time it in this many extra interpreters too
SETUP_SAMPLES = 8

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"))

STRUCTURES = ["osp-1", "osp-2", "osp-3"] + [
    f"super-e2-{s}" for s in ("i", "ii", "iii", "iv", "v", "vi")]

# span names each workload must reach (nonzero count) or must not reach
REACH = {
    "verify-paper": {
        "nonzero": ["scalars.mul", "scalars.add", "poisson.bracket",
                    "poisson.field", "poisson.coproduct",
                    "bialgebra.check_cobracket", "bialgebra.coboundary_delta",
                    "tensors.schouten", "tensors.ad_action",
                    "cocycles.solve_cocycle_space:osp12",
                    "cocycles.solve_cocycle_space:super_e2",
                    "cocycles.coboundary_space", "cocycles.cojacobi_constraints",
                    "equivalence.transform", "equivalence.orbit_claim",
                    "claims.run_claims", "cli.main", "algebra.builtin"]
        + [f"poisson.check_axioms:{s}" for s in STRUCTURES],
        "zero": [],
    },
    "classify": {
        "nonzero": ["scalars.mul", "scalars.add", "bialgebra.check_cobracket",
                    "bialgebra.coboundary_delta", "tensors.schouten",
                    "tensors.ad_action", "cocycles.solve_cocycle_space:osp12",
                    "cocycles.solve_cocycle_space:super_e2",
                    "cocycles.coboundary_space", "cocycles.cojacobi_constraints",
                    "equivalence.transform"],
        "zero": ["poisson.bracket", "poisson.field", "poisson.coproduct"],
    },
    "tables": {
        "nonzero": ["scalars.mul", "scalars.add", "poisson.bracket",
                    "poisson.field", "poisson.format_table",
                    "poisson.named_structure"],
        "zero": ["poisson.check_axioms", "bialgebra.check_cobracket"],
    },
}


# -- children ------------------------------------------------------------------

def run_child(workload, seed, trace=False, probes=False, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "--spans",
                os.path.join(HERE, "out", f"spans-{workload}.bin")]
    if probes:
        cmd.append("--probes")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(seconds, step):
    """Call step() until the next call would end after `seconds`."""
    t0 = time.perf_counter()
    out, took = [], []
    while True:
        t = time.perf_counter()
        out.extend(step())
        took.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(took) > seconds:
            return out


# -- metrics ---------------------------------------------------------------------

def quantile(values, q):
    """The q-quantile of values, interpolated between samples (never beyond
    the slowest one, which matters for runs of a few jobs)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(reps, setups):
    lat = [x for r in reps for x in r["latencies_s"]]
    med = statistics.median
    values = {
        "setup_s": med([r["setup_s"] for r in reps + setups]),
        "wall_s": med(r["wall_s"] for r in reps),
        "job_p50_ms": med(lat) * 1e3,
        "job_p90_ms": quantile(lat, 0.9) * 1e3,
        "peak_rss_mb": med(r["rss_mb"] for r in reps),
    }
    notes = {"repetitions": len(reps), "job_samples": len(lat),
             "wall_s": [r["wall_s"] for r in reps],
             "wall_raw_s": [r["wall_raw_s"] for r in reps],
             "setup_s": [r["setup_s"] for r in reps + setups],
             "setup_raw_s": [r["setup_raw_s"] for r in reps + setups],
             "samples_beyond_p90": sum(x * 1e3 > values["job_p90_ms"] for x in lat)}
    return values, notes


def per_layer(plain, traced, probes):
    """Per-layer metrics: spans of the traced repetitions, set-up steps of
    the untraced ones (medians over repetitions), and the probes."""
    med = statistics.median_low   # an actual sample: counts stay whole

    def span(name, field):     # field: 0 calls, 1 inclusive s, 2 self s
        return med(r["spans"].get(name, [0, 0.0, 0.0])[field] for r in traced)

    m = {}
    m["scalars.mul_calls"] = (span("scalars.mul", 0), "count")
    m["scalars.term_products"] = (med(r["term_products"] for r in traced), "count")
    m["scalars.mul_self_s"] = (span("scalars.mul", 2), "s")
    m["scalars.add_calls"] = (span("scalars.add", 0), "count")
    m["scalars.add_self_s"] = (span("scalars.add", 2), "s")
    m["scalars.mul_nonzero_ratio"] = (med(
        r["mul_nonzero"] / r["spans"]["scalars.mul"][0]
        if r["spans"].get("scalars.mul") else 0.0 for r in traced), "ratio")
    for kind in ("osp", "tensor", "e2", "const"):
        m[f"scalars.mul_us.{kind}"] = (probes["mul_us"][kind], "us")
    m["scalars.reduce_us"] = (probes["reduce_us"], "us")
    for short in ("bracket", "field", "coproduct"):
        m[f"poisson.{short}_calls"] = (span(f"poisson.{short}", 0), "count")
        m[f"poisson.{short}_self_s"] = (span(f"poisson.{short}", 2), "s")
    for s in STRUCTURES:
        m[f"poisson.check_axioms_s.{s}"] = (span(f"poisson.check_axioms:{s}", 1), "s")
    for short in ("bracket", "field", "coproduct"):
        m[f"poisson.{short}_repeat_ratio"] = (med(
            r["repeat_ratios"].get(f"poisson.{short}", 0.0) for r in traced), "ratio")
    m["bialgebra.check_cobracket_calls"] = (span("bialgebra.check_cobracket", 0), "count")
    m["bialgebra.check_cobracket_self_s"] = (span("bialgebra.check_cobracket", 2), "s")
    m["bialgebra.coboundary_delta_self_s"] = (span("bialgebra.coboundary_delta", 2), "s")
    m["tensors.schouten_self_s"] = (span("tensors.schouten", 2), "s")
    m["tensors.ad_action_calls"] = (span("tensors.ad_action", 0), "count")
    m["tensors.ad_action_self_s"] = (span("tensors.ad_action", 2), "s")
    for alg in ("osp12", "super_e2"):
        m[f"cocycles.solve_cocycle_space_s.{alg}"] = (
            span(f"cocycles.solve_cocycle_space:{alg}", 1), "s")
    m["cocycles.coboundary_space_s"] = (span("cocycles.coboundary_space", 1), "s")
    m["cocycles.cojacobi_constraints_s"] = (
        span("cocycles.cojacobi_constraints", 1), "s")
    m["equivalence.transform_self_s"] = (span("equivalence.transform", 2), "s")
    m["equivalence.orbit_claims_s"] = (span("equivalence.orbit_claim", 1), "s")
    m["algebra.builtin_s"] = (med(r["steps"]["builtin"] for r in plain), "s")
    m["poisson.group_build_s"] = (med(r["steps"]["group_build"] for r in plain), "s")
    m["claims.self_s"] = (span("claims.run_claims", 2), "s")
    m["cli.self_s"] = (span("cli.main", 1) - span("claims.run_claims", 1), "s")
    m["trace.overhead_ratio"] = (
        med(r["wall_s"] for r in traced) / med(r["wall_s"] for r in plain) - 1,
        "ratio")
    m["trace.spans"] = (med(r["span_count"] for r in traced), "count")
    return m


def reach_problems(workload, traced):
    problems = []
    for r in traced:
        counts = {}
        for name, row in r["spans"].items():
            base = name.split(":", 1)[0]
            counts[name] = counts.get(name, 0) + row[0]
            if base != name:
                counts[base] = counts.get(base, 0) + row[0]
        for name in REACH[workload]["nonzero"]:
            if not counts.get(name):
                problems.append(f"span {name} never reached")
        for name in REACH[workload]["zero"]:
            if counts.get(name):
                problems.append(f"span {name} reached {counts[name]} times")
    return sorted(set(problems))


# -- the run ---------------------------------------------------------------------

def stamp():
    sha = None
    if os.path.exists(".git"):   # a checkout without .git may sit in another repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    src = os.path.join("src", "superbialg")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(path.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {"git_sha": sha, "src_sha256": h.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m_start": os.getloadavg()[0]}


def run_workload(workload, seed, seconds, trace):
    """(result dict, notes dict) for one workload."""
    info = {}
    if not trace:
        t0 = time.perf_counter()
        setups = [run_child(workload, seed, setup_only=True)
                  for _ in range(SETUP_SAMPLES)]
        reps = repeat(seconds - (time.perf_counter() - t0),
                      lambda: [run_child(workload, seed)])
        values, info = end_to_end(reps, setups)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        checked = reps
        problems = []
    else:
        plain, traced = [], []

        def pair():
            plain.append(run_child(workload, seed, probes=not plain))
            traced.append(run_child(workload, seed, trace=True))
            return [plain[-1], traced[-1]]
        checked = repeat(seconds, pair)
        metrics = per_layer(plain, traced, plain[0]["probes"])
        info["probe_pairs"] = plain[0]["probes"]["pairs"]
        problems = reach_problems(workload, traced)
        if len({r["digest"] for r in checked}) != 1:
            problems.append("traced and untraced repetitions gave different outputs")
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    problems = sorted({p for r in checked for p in r["problems"]}) + problems
    info.update({
        "failed_ratio": failed / attempted,
        "failures": sorted({f for r in checked for f in r["failures"]})[:5],
        "problems": problems,
        "digest": checked[0]["digest"],
    })
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, info


def print_table(workload, result, info):
    print(f"# {workload}: {result['attempted']} jobs attempted, "
          f"{result['failed']} failed (failed_ratio "
          f"{info['failed_ratio']:.3g}), correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    for line in info["failures"] + info["problems"]:
        print(f"{workload}\tFAIL\t{line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "superbialg", "__init__.py")):
        print("error: run from the root of a superbialg checkout "
              "(src/superbialg not found)", file=sys.stderr)
        return 2
    info = stamp()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        result, notes = run_workload(workload, args.seed, args.seconds,
                                     bool(args.trace))
        info[workload] = notes
        results[workload] = result
        print_table(workload, result, notes)
    info.update({"seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "loadavg_1m_end": os.getloadavg()[0]})
    print(json.dumps({"stamp": info}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
