"""polarlab benchmark: one closed-loop caller per workload.

    python3 perfbench/run.py --workload mc_n256_scl32 --seed 1 \
        --seconds 35 --trace 0

Run from the root of a source checkout; polarlab is imported from its
`src/` directory and nowhere else. The run sets the workload up, then
repeats the workload's op until the next op would end past `--seconds`.
With `--trace 0` it patches nothing and prints the end-to-end metrics; with
`--trace 1` it alternates traced and untraced ops and prints the per-layer
metrics, including the tracing overhead. The last stdout line is the result
JSON; earlier lines starting with '#' carry the environment and per-op
facts. Results and spans are also written under perfbench/out/.
"""

import argparse
import json
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(CHECKOUT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPS = 7

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "1/s",
    "frames_per_s_2w": "1/s",
    "op_s": "s",
    "peak_rss_mb": "MB",
}


def import_polarlab():
    """Import polarlab from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "polarlab", "__init__.py")):
        sys.exit(f"perfbench: no polarlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import polarlab
    if os.path.dirname(os.path.dirname(os.path.abspath(
            polarlab.__file__))) != SRC:
        sys.exit(f"perfbench: polarlab imported from {polarlab.__file__}, "
                 f"not from {SRC}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (times setup_s)")
    return p.parse_args(argv)


def measure_setup_s(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import polarlab and set the
    workload up (GA construction and input generation)."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-only"], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _median_rate(ops, workers):
    rates = [op.mc[workers][0] / op.mc[workers][1] for op in ops
             if workers in op.mc]
    return statistics.median(rates) if rates else 0.0


def run_workload(name, seed, seconds, trace, sizes=None, setup_s=None):
    """Set up and run one workload; returns (result, facts, tracer or None)."""
    import workloads
    from tracer import Tracer

    tally = workloads.Tally()
    counter = workloads.LogCounter()
    logger = logging.getLogger("polarlab")
    logger.addHandler(counter)
    workdir = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir, tally, counter, sizes)
    tracer = Tracer() if trace else None
    records, walls_traced, walls_plain = [], [], []
    try:
        if tracer is not None:
            tracer.run("bench.setup", wl.setup)
        else:
            wl.setup()
        start = time.perf_counter()
        index = 0
        while True:
            traced = tracer is not None and index % 2 == 0
            op_start = time.perf_counter()
            rec = tracer.run("bench.op", wl.op, index) if traced \
                else wl.op(index)
            wall = time.perf_counter() - op_start
            (walls_traced if traced else walls_plain).append(wall)
            records.append(rec)
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed + wall > seconds and (tracer is None or index >= 2):
                break
        facts = wl.finish()
    finally:
        logger.removeHandler(counter)
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {
            "setup_s": setup_s if setup_s is not None else 0.0,
            "frames_per_s": _median_rate(records, 1),
            "frames_per_s_2w": _median_rate(records, 2),
            "op_s": statistics.median(walls_plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        from layers import PER_LAYER, per_layer_metrics
        metrics = per_layer_metrics(tracer.spans, walls_traced, walls_plain)
        units = PER_LAYER
    result = {
        "correct": not tally.failed_checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    facts.update(ops=len(records), failed_checks=tally.failed_checks,
                 per_op=[{"mc": {w: [f, round(s, 4)]
                                 for w, (f, s) in r.mc.items()}, **r.info}
                         for r in records])
    return result, facts, tracer


def main(argv=None):
    args = parse_args(argv)
    import_polarlab()
    import envinfo
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workdir = os.path.join(OUT_DIR, f"setup-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            workloads.WORKLOADS[args.workload](
                args.seed, workdir, workloads.Tally(),
                workloads.LogCounter()).setup()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    env = envinfo.collect(CHECKOUT)
    print("# env " + json.dumps(env), flush=True)
    setup_s = None if args.trace else measure_setup_s(args.workload,
                                                      args.seed)
    result, facts, tracer = run_workload(args.workload, args.seed,
                                         args.seconds, args.trace,
                                         setup_s=setup_s)
    for row in facts.pop("per_op"):
        print("# op " + json.dumps(row))
    print("# facts " + json.dumps(facts))

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "facts": facts,
                   "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(stem + "-spans.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
