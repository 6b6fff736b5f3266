"""One benchmark run in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports the
library from ``src/``, makes one warm-up call per operation kind, prints
``READY`` (the parent times set-up up to that line), builds the seeded
deck, runs jobs one at a time until ``--seconds`` of job time has passed,
checks each distinct job with its oracle and writes one JSON document to
``--out``.  With ``--setup-only`` it exits after ``READY``.

With ``--trace 1`` half of ``--seconds`` runs untraced, then the same jobs
run again traced, so the document also gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import types
import warnings
from array import array
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODULES = ("exact", "algebra", "sl2", "truncfn", "pcf", "reps", "multimode", "dsl", "cli")
CLI_TIMEOUT_S = 60


def load_library():
    import importlib
    package = importlib.import_module("kreinccr")
    km = types.SimpleNamespace(package=package, MODULES=MODULES)
    for name in MODULES:
        setattr(km, name, importlib.import_module(f"kreinccr.{name}"))
    return km


# ---------------------------------------------------------------------
# running one job
# ---------------------------------------------------------------------

def digest(obj, h=None):
    """Stable hash of a returned value, to check that repeated runs of a
    job return the same result as the one the oracle checked."""
    top = h is None
    h = h or hashlib.blake2b(digest_size=16)
    if obj is None or isinstance(obj, (bool, int, float, complex, str)):
        h.update(repr(obj).encode())
    elif isinstance(obj, enum.Enum):
        h.update(repr(obj.value).encode())
    elif hasattr(obj, "dtype") and hasattr(obj, "tobytes"):
        h.update(f"{obj.dtype}{getattr(obj, 'shape', '')}".encode())
        h.update(obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for x in obj:
            digest(x, h)
        h.update(b"]")
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            h.update(repr(k).encode())
            digest(obj[k], h)
    elif isinstance(obj, (set, frozenset)):
        h.update(repr(sorted(obj, key=repr)).encode())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    elif hasattr(obj, "__slots__"):
        for name in obj.__slots__:
            digest(getattr(obj, name), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


CALIBRATION_REF_MS = 0.45   # best calibration() time on an idle 2-vCPU x86-64 host
CALIBRATION_REPS = 50


def calibration():
    """Fixed pure-Python work of the kind the library does (tuples, dicts,
    Fractions), independent of the library: it tracks the host's speed."""
    acc = {}
    for i in range(200):
        k = (i % 13, i % 7)
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i, 7)
    return len(acc)


def calibrate():
    best = math.inf
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        calibration()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


OUTCOMES = ("ok", "fail", "wrong")


def run_deck(deck, runner, check, seconds, tracer=None, count=None):
    """Run jobs in deck order, cycling, until the job time reaches
    ``seconds`` (or, given ``count``, for exactly that many jobs).  The
    oracle runs on the first run of each distinct job, with the clock
    stopped; later runs must reproduce its digest.

    Returns every record; the ones the metrics count: the whole passes
    over the deck, so that each job of the deck weighs the same in every
    run, leaving out the first (warm-up, oracle interleaved) pass when there
    are at least two; with no whole pass, all of them; the best time of
    ``calibration()`` over the same passes, measured as each pass starts;
    and the worker's peak RSS in MB at the end of the loop.  During the
    loop each execution costs the harness nine bytes, so that the peak
    does not grow with the number of executions a run fits in; the records
    are built after the peak is read."""
    verdicts, digests, calib = {}, {}, []
    latency_ms, outcome_of = array("d"), bytearray()
    notes = {}   # execution -> error, or a CLI call's non-zero exit / traceback
    busy = 0.0
    i = 0
    while (i < count) if count is not None else (busy < seconds):
        k = i % len(deck)
        job = deck[k]
        if k == 0:
            calib.append(calibrate())
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            result, error = runner(job), None
        except Exception as e:   # a failing job is a measured outcome
            result, error = None, f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - t0
        busy += latency
        if tracer is not None:
            tracer.job = None
        if error is not None:
            outcome = "fail"
            notes[i] = {"error": error}
        elif k not in verdicts:
            verdicts[k] = check(job, result)
            digests[k] = digest(result)
            outcome = verdicts[k]
        else:
            outcome = verdicts[k] if digest(result) == digests[k] else "wrong"
        if job.op == "cli" and result is not None and (result[0] != 0 or "Traceback" in result[2]):
            notes[i] = {"exit": result[0], "traceback": "Traceback" in result[2]}
        latency_ms.append(latency * 1e3)
        outcome_of.append(OUTCOMES.index(outcome))
        i += 1
    peak_mb = peak_rss_mb()
    records = []
    for n in range(i):
        job = deck[n % len(deck)]
        record = {"job": n % len(deck), "pass": n // len(deck), "op": job.op, "size": job.size,
                  "latency_ms": latency_ms[n], "outcome": OUTCOMES[outcome_of[n]],
                  "known": job.known, "error": None}
        if job.op == "cli" and notes.get(n, {}).get("error") is None:
            record.update(exit=0, traceback=False)
        record.update(notes.get(n, {}))
        records.append(record)
    whole = i // len(deck)
    first = 1 if whole >= 2 else 0
    counted = [r for r in records if first <= r["pass"] < whole] if whole else records
    calib_ms = min(calib[first:whole] or calib)
    return records, counted, calib_ms, peak_mb


def peak_rss_mb():
    """This process's peak resident memory in MB.  Linux carries the
    parent's peak into ``ru_maxrss`` across fork and exec, so a worker
    started by a parent that had grown larger would report the parent's
    peak; ``VmHWM`` belongs to the worker's own memory and is read where
    the system has it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------
# summary metrics
# ---------------------------------------------------------------------

def tail(latencies):
    """The highest percentile with at least 10 values beyond it: the 11th
    largest value.  Returns (value, percentile, values beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def summarize(records, calib_ms):
    """Run metrics from the counted records.

    Latency statistics use each distinct job's best latency over its runs:
    on a shared host the CPU speed drifts between regimes for seconds at a
    time, and the best of several passes measures the program rather than
    the neighbours.  They are then scaled by CALIBRATION_REF_MS / calib_ms,
    the host's speed in this run relative to an idle one, because slow
    periods also last whole runs.  ``ok_per_s`` is the throughput of one
    pass at those latencies.  Counts and fractions are over every run of a
    job.  The unscaled values are kept under ``raw``."""
    n = len(records)
    best, verdict = {}, {}
    for r in records:
        k = r["job"]
        best[k] = min(best.get(k, math.inf), r["latency_ms"])
        if verdict.get(k, "ok") == "ok":
            verdict[k] = r["outcome"]
    ok_jobs = sum(v == "ok" for v in verdict.values())
    count = {o: sum(r["outcome"] == o for r in records) for o in ("ok", "fail", "wrong")}
    unexpected = sum(r["outcome"] != "ok" and r["known"] is None for r in records)
    by_known = {}
    for r in records:
        if r["outcome"] != "ok" and r["known"]:
            key = f"{r['known']}:{r['outcome']}"
            by_known[key] = by_known.get(key, 0) + 1

    def timing(scale):
        lat = sorted(v * scale for v in best.values())
        tail_ms, pct, beyond = tail(lat)
        return {"ok_per_s": ok_jobs / (sum(lat) / 1e3), "job_p50_ms": lat[(len(lat) - 1) // 2],
                "job_tail_ms": tail_ms, "job_tail_percentile": pct, "job_tail_beyond": beyond}

    return {
        "attempted": n, **count, "unexpected": unexpected, "known_defects": by_known,
        "distinct_jobs": len(best), "runs_per_job": n / len(best),
        "calibration_ms": calib_ms, **timing(CALIBRATION_REF_MS / calib_ms),
        "raw": timing(1.0),
        "fail_frac": count["fail"] / n, "wrong_frac": count["wrong"] / n,
    }


def provenance(seed):
    import numpy
    import scipy
    info = {"seed": seed, "git_sha": None, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        info["git_sha"] = proc.stdout.strip() or None
    try:
        cfg = numpy.show_config(mode="dicts")
        info["openblas"] = cfg["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        pass
    try:
        info["nproc"] = len(os.sched_getaffinity(0))
    except AttributeError:
        pass
    return info


def per_layer(tracer, records):
    """Every per-layer value the traced half gives, by metric name."""
    out = {}
    for name, (calls, busy, self_s) in tracer.layer_stats().items():
        out[f"{name}.calls"], out[f"{name}.busy_s"], out[f"{name}.self_s"] = calls, busy, self_s
    out.update(tracer.counts)
    out.update(tracer.sizes)
    out["pcf.weber_D.wrong"] = sum(r["op"] == "weber_D" and r["outcome"] == "wrong"
                                   for r in records)
    out["reps.raised"] = len(tracer.raised)
    out["reps.nonfinite"] = len(tracer.nonfinite)
    out["cli.traceback_n"] = sum(bool(r.get("traceback")) for r in records)
    out["cli.exit_nonzero_n"] = sum(r.get("exit", 0) != 0 for r in records)
    return out


def warm_up(km, workload):
    from workloads import EXECUTORS, warmup_jobs

    for op, args in warmup_jobs(km)[workload]:
        EXECUTORS[op](km, *args)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    km = load_library()
    warm_up(km, args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    from oracles import check
    from tracing import Tracer
    from workloads import EXECUTORS, make_deck

    tmpdir = os.path.join(HERE, "out", f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        if args.workload == "cli":
            os.chdir(tmpdir)   # the README example reads @state.json from here
        deck = make_deck(args.workload, args.seed, km, tmpdir)
        runner = lambda job: EXECUTORS[job.op](km, *job.args)   # noqa: E731
        checker = lambda job, result: check(km, job, result)   # noqa: E731
        doc = {"workload": args.workload, "seconds": args.seconds,
               "trace": args.trace, "provenance": provenance(args.seed),
               "deck_size": len(deck)}
        if args.trace:
            # the traced half repeats exactly the jobs of the untraced half
            plain_all, plain, calib0, _ = run_deck(deck, runner, checker, args.seconds / 2)
            tracer = Tracer()
            tracer.install(km)
            try:
                traced_all, traced, calib1, peak = run_deck(deck, runner, checker, None,
                                                            tracer, count=len(plain_all))
            finally:
                tracer.uninstall()
            doc["untraced"] = summarize(plain, calib0)
            doc["summary"] = summarize(traced, calib1)
            records = plain_all + traced_all
            layers = per_layer(tracer, traced_all)
            whole = summarize(plain + traced, min(calib0, calib1))
            layers["fail_frac"] = whole["fail_frac"]
            layers["wrong_frac"] = whole["wrong_frac"]
            layers["trace.ok_per_s"] = doc["summary"]["ok_per_s"]
            layers["trace.untraced_ok_per_s"] = doc["untraced"]["ok_per_s"]
            layers["trace.overhead"] = (doc["untraced"]["ok_per_s"]
                                        / max(doc["summary"]["ok_per_s"], 1e-12))
            doc["per_layer"] = layers
            doc["spans"] = tracer.spans
        else:
            records, counted, calib, peak = run_deck(deck, runner, checker, args.seconds)
            doc["summary"] = summarize(counted, calib)
        doc["peak_rss_mb"] = peak
        doc["jobs"] = records
    finally:
        os.chdir(ROOT)
        shutil.rmtree(tmpdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
