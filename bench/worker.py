"""One repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed N [--trace] [--probes]
                            [--spans PATH] [--setup-only]

Run from the root of a checkout: it imports ``superbialg`` from ``src/``
there.  It times set-up (the import plus what the first job needs), then
runs the seeded job list one job after another, checks every output after
the pass, and prints one JSON object on its last line of stdout.  With
``--trace`` the pass runs under the span tracer; with ``--probes`` the
scalar probes run after the pass; with ``--setup-only`` it stops after
timing set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--spans", help="write the spans to this file")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after timing set-up")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import speed
    import workloads

    t0 = time.perf_counter()
    steps = workloads.setup()
    setup_raw_s = time.perf_counter() - t0
    import superbialg
    src = os.path.join(os.getcwd(), "src", "superbialg")
    if os.path.dirname(os.path.abspath(superbialg.__file__)) != src:
        raise RuntimeError(f"superbialg was imported from {superbialg.__file__},"
                           f" not from {src}")

    if args.setup_only:
        r = statistics.median(speed.reference_s() for _ in range(3))
        print(json.dumps({"setup_s": setup_raw_s * speed.NOMINAL_S / r,
                          "setup_raw_s": setup_raw_s, "steps": steps}))
        return 0

    jobs = workloads.make_jobs(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    outputs, times = [], []
    clock = time.perf_counter
    with speed.SpeedLog() as log:
        for job in jobs:
            t = clock()
            try:
                if tracer is None:
                    out = workloads.run_job(job)
                else:
                    with tracer.span("bench.job"):
                        out = workloads.run_job(job)
            except Exception as exc:  # a failed job is counted, not fatal
                out = exc
                traceback.print_exc(file=sys.stderr)
            times.append((t, clock()))
            outputs.append(out)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw, scaled = zip(*(log.job_time(a, b) for a, b in times))

    if tracer is not None:
        tracer.uninstall()
    bad, problems = workloads.failures(args.workload, args.seed, jobs, outputs)
    result = {
        "setup_s": setup_raw_s * speed.NOMINAL_S / log.first(),
        "setup_raw_s": setup_raw_s, "steps": steps,
        "wall_s": sum(scaled), "wall_raw_s": sum(raw),
        "latencies_s": scaled, "rss_mb": rss_mb,
        "attempted": len(jobs), "failed": len(bad), "failures": bad[:5],
        "problems": problems, "digest": workloads.output_digest(outputs),
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["span_count"] = len(tracer.name_of)
        result["mul_nonzero"] = tracer.mul_nonzero
        result["term_products"] = tracer.term_products
        result["repeat_ratios"] = tracer.repeat_ratios()
        if args.spans:
            tracer.write(args.spans)
    if args.probes:
        import probes
        result["probes"] = probes.run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
