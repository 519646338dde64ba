#!/usr/bin/env python3
"""Benchmark of the plapflow CLI: end-to-end time and memory, or a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from anywhere; the program is taken from ``src/`` next to this directory.
One client runs one command at a time (closed loop), each in a fresh
process, until S seconds are used.  Every command's outputs are checked
against the workload's pass criteria and reference values.

With ``--trace 0`` the last line of output reports the medians over the
processes of wall_s, setup_s, solve_s and peak_rss_mb.  With ``--trace 1``
untraced and traced processes alternate; it reports the medians of the
per-layer metrics over the traced ones, and trace.overhead_s, the traced
minus the untraced median solve_s.  The line before it records the
environment; the one before that lists every process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# Children get one BLAS thread: with the default, timings on a 2-core
# machine spread several times wider.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
OVERHEAD = "trace.overhead_s"

# One run must end within 180 s; no process is started that would be
# expected to end after LAST_END_S.
LAST_END_S = 150.0


def child_env(tmp):
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env.update({"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "TMPDIR": str(tmp)})
    return env


def spawn(argv, env, run_dir, timeout):
    """Run argv in run_dir to completion, killing it after timeout seconds.

    Returns its launch and exit times, exit code and peak RSS in MB.
    """
    with open(run_dir / "stdout.txt", "w") as out, open(run_dir / "stderr.txt", "w") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=run_dir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        ended = time.monotonic()
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    return launched, ended, code, usage.ru_maxrss / 1024.0


def run_once(wl, scale, seed, run_dir, traced, env, example, expected, timeout=170.0):
    """One command in a fresh process; returns its sample record."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True)
    cli_args = workloads.prepare(wl, scale, seed, run_dir, example)
    trace_out = run_dir / "trace.json"
    argv = [sys.executable, str(HERE / "child.py"), str(trace_out), wl.entry,
            "1" if traced else "0", *cli_args]
    launched, ended, code, rss = spawn(argv, env, run_dir, timeout)
    sample = {"traced": traced, "exit": code, "wall_s": ended - launched,
              "peak_rss_mb": rss, "problems": []}
    if code != 0:
        sample["problems"].append(f"exit code {code}: "
                                  + (run_dir / "stderr.txt").read_text()[-500:])
    try:
        trace = json.loads(trace_out.read_text())
    except (OSError, ValueError):
        trace = None
        sample["problems"].append("no trace written")
    if trace is not None:
        spans = [tuple(s) for s in trace["spans"]]
        entries = [s for s in spans if s[0] == wl.entry]
        if len(entries) == 1:
            sample["setup_s"] = entries[0][1] - launched
            sample["solve_s"] = entries[0][2] - entries[0][1]
        else:
            sample["problems"].append(f"{len(entries)} calls into {wl.entry}")
        if traced:
            sample["layers"] = tracing.layer_metrics(
                spans, Counter(trace["counters"]),
                wl.scales[scale].get("samples", 0), workloads.output_bytes(run_dir))
    stdout = (run_dir / "stdout.txt").read_text()
    sample["values"], problems = workloads.observe(wl, run_dir, stdout)
    sample["problems"] += problems
    if expected is not None and sample["values"] is not None:
        sample["problems"] += workloads.compare(sample["values"], expected)
    sample["ok"] = not sample["problems"]
    return sample


def probe(env, tmp):
    """Warm the byte code and file caches; return library versions and the
    example config, as the child process sees them."""
    out = tmp / "probe.json"
    subprocess.run([sys.executable, str(HERE / "child.py"), "--probe", str(out)],
                   env=env, cwd=tmp, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


@contextlib.contextmanager
def workspace(prefix):
    """A fresh directory under WORK, the children's environment, and what
    the probe reported; the directory is removed afterwards."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        env = child_env(work)
        yield work, env, probe(env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # fails while another run still uses it


def git_state():
    if not (ROOT / ".git").exists():
        return {"commit": "unknown", "dirty": None}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": None}
    return {"commit": head, "dirty": bool(status.strip())}


def measure(wl, seed, seconds, trace, env, work, example, expected):
    """Run commands back to back until `seconds` are used; with trace,
    alternate untraced and traced processes, starting untraced."""
    samples = []
    start = time.monotonic()
    while True:
        run_dir = work / f"p{len(samples)}"
        traced = trace and len(samples) % 2 == 1
        timeout = 170.0 - (time.monotonic() - start)
        samples.append(run_once(wl, "full", seed, run_dir, traced, env, example,
                                expected, timeout))
        shutil.rmtree(run_dir)
        elapsed = time.monotonic() - start
        mean = elapsed / len(samples)
        enough = len(samples) >= (2 if trace else 1)
        if samples[-1]["exit"] < 0:
            break  # killed at the time limit, or by a crash
        if enough and elapsed + mean / 2 > seconds or elapsed + 1.5 * mean > LAST_END_S:
            break
    return samples


def summarize(samples, trace):
    def median(rows, key, of=statistics.median):
        values = [r[key] for r in rows if key in r]
        return of(values) if values else None

    untraced = [s for s in samples if not s["traced"]]
    if not trace:
        metrics = {name: {"value": median(untraced, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        # median_low reports a value one process measured, so counts stay exact
        layers = [s["layers"] for s in samples if "layers" in s]
        metrics = {name: {"value": median(layers, name, statistics.median_low), "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
        traced = [s for s in samples if s["traced"]]
        a, b = median(traced, "solve_s"), median(untraced, "solve_s")
        metrics[OVERHEAD] = {"value": a - b if None not in (a, b) else None, "unit": "s"}
    failed = sum(not s["ok"] for s in samples)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the clean-up below still runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "plapflow" / "cli.py").is_file():
        print(f"plapflow sources not found under {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    expected = json.loads(REFERENCE.read_text())["full"][wl.name]

    with workspace(f"{wl.name}-") as (work, env, versions):
        example = versions.pop("example_config")
        samples = measure(wl, args.seed, args.seconds, bool(args.trace), env, work,
                          example, expected)

    environment = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), **versions,
        "child_env": {**BLAS_THREADS, "PYTHONHASHSEED": "0"}, **git_state(),
    }
    for s in samples:
        s.pop("values")
    print(json.dumps({"processes": samples}))
    print(json.dumps({"environment": environment}))
    print(json.dumps(summarize(samples, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
