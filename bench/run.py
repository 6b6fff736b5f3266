"""kreinccr benchmark driver.

One run:

    python3 bench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
Every run starts fresh worker processes (see worker.py) with BLAS/OpenMP
pinned to one thread; set-up is timed in eleven of them, five before the
measuring worker, the measuring worker itself and five after it, and the
fastest is reported, scaled by the run's CPU-speed calibration.  The full record of a run (provenance, every job's
op, size, latency and outcome, spans when traced) goes to ``bench/out/``.

All four workloads (``reps`` too, which BENCHMARK.json does not gate),
untraced and traced, with a readable table:

    python3 bench/run.py --all --seconds 25 --seed 1 [--out FILE]

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
import time

from worker import CALIBRATION_REF_MS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5          # set-up-only workers before and again after the measuring one
PROBE_TIMEOUT_S = 60
SLACK_S = 100             # oracle time and set-up on top of --seconds
START_PROBES = 3


class BenchError(Exception):
    pass


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONPATH=SRC)
    return env


def start_worker(args):
    """Start worker.py; return (process, seconds until it printed READY)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, elapsed


def stop(proc):
    proc.kill()
    proc.communicate()


def finish(proc, timeout):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def fresh_interpreter_s(code):
    """Median wall time of ``python -c code`` in fresh interpreters."""
    times = []
    for _ in range(START_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=worker_env(), cwd=ROOT,
                       check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_once(workload, seed, seconds, trace):
    """One benchmark run: set-up probes, the measuring worker, its record."""
    if not os.path.isfile(os.path.join(SRC, "kreinccr", "__init__.py")):
        raise BenchError(f"no kreinccr package under {SRC}")
    compileall.compile_dir(SRC, quiet=1)
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []

    def probes():
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(common + ["--setup-only"])
            setups.append(ready)
            finish(proc, PROBE_TIMEOUT_S)

    probes()
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")
    proc, ready = start_worker(common + ["--seconds", str(seconds), "--trace", str(trace),
                                         "--out", path])
    setups.append(ready)
    finish(proc, seconds + SLACK_S)
    probes()
    with open(path) as fh:
        doc = json.load(fh)
    # The fastest set-up, scaled like the latencies to an idle host's speed
    # (worker.summarize): slow periods of a shared host last from seconds,
    # which the probes spread over the run get past, to minutes, which the
    # run's calibration measures.
    doc["setup_raw_s"] = min(setups)
    doc["setup_s"] = min(setups) * CALIBRATION_REF_MS / doc["summary"]["calibration_ms"]
    doc["setup_samples_s"] = setups
    if trace:
        doc["per_layer"]["cli.start_s"] = fresh_interpreter_s("pass")
        doc["per_layer"]["cli.import_s"] = fresh_interpreter_s("import kreinccr.cli")
        spans = doc.pop("spans")
        with open(path.replace(".json", "-spans.json"), "w") as fh:
            json.dump(spans, fh)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc


# Reported with the end-to-end metrics by --all; per-layer metrics of a traced run.
FRACTIONS = ({"name": "fail_frac", "unit": "ratio"}, {"name": "wrong_frac", "unit": "ratio"})


def result_line(doc, bench, extra=()):
    s = doc["summary"]
    if doc["trace"]:
        metrics = bench["per_layer"]
        values = doc["per_layer"]
    else:
        metrics = list(bench["end_to_end"]) + list(extra)
        values = dict(s, setup_s=doc["setup_s"], peak_rss_mb=doc["peak_rss_mb"])
    return {"correct": s["unexpected"] == 0, "attempted": s["attempted"],
            "failed": s["unexpected"],
            "metrics": {m["name"]: {"value": float(values.get(m["name"], 0)), "unit": m["unit"]}
                        for m in metrics}}


def run_all(seed, seconds, out):
    bench = spec()
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        plain = run_once(w, seed, seconds, 0)
        traced = run_once(w, seed, seconds, 1)
        s = plain["summary"]
        e2e = result_line(plain, bench, FRACTIONS)["metrics"]
        report["workloads"][w] = {
            "end_to_end": e2e,
            "tail": {"percentile": s["job_tail_percentile"],
                     "distinct_jobs": s["distinct_jobs"], "beyond": s["job_tail_beyond"]},
            "verdicts": {k: s[k] for k in ("attempted", "ok", "fail", "wrong", "unexpected")},
            "known_defects": s["known_defects"],
            "trace_overhead": traced["per_layer"]["trace.overhead"],
            "per_layer": {m["name"]: traced["per_layer"].get(m["name"], 0)
                          for m in bench["per_layer"]},
            "provenance": plain["provenance"],
        }
        print(f"\n== {w}  (seed {seed}, {seconds:g} s)")
        for n, m in e2e.items():
            print(f"  {n:<12} {m['value']:>12.6g} {m['unit']}")
        print(f"  tail is p{s['job_tail_percentile']:.4g} of {s['distinct_jobs']} distinct "
              f"jobs ({s['job_tail_beyond']} beyond), {s['runs_per_job']:.1f} runs each")
        print("  verdicts: " + ", ".join(f"{k} {s[k]}" for k in
                                         ("attempted", "ok", "fail", "wrong", "unexpected")))
        print(f"  known defects: {s['known_defects'] or 'none'}")
        print(f"  tracing overhead: {traced['per_layer']['trace.overhead']:.3f}x "
              "(untraced ok_per_s / traced ok_per_s)")
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1)
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, print a table")
    ap.add_argument("--out", help="with --all: write the report here")
    args = ap.parse_args(argv)
    try:
        bench = spec()
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        if args.all:
            run_all(args.seed, seconds, args.out)
            return 0
        if args.workload not in WORKLOADS:
            raise BenchError(f"--workload must be one of {WORKLOADS}")
        doc = run_once(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    line = result_line(doc, bench)
    s = doc["summary"]
    print(f"{args.workload}: {s['attempted']} jobs, ok {s['ok']}, fail {s['fail']}, "
          f"wrong {s['wrong']}, unexpected {s['unexpected']}; "
          f"tail p{s['job_tail_percentile']:.4g} of {s['distinct_jobs']} distinct jobs")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
