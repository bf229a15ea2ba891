"""Benchmark of equilibrium training and match play.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every measured step runs in a
fresh single process with the BLAS thread count fixed at one. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.

- ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
  several fresh set-up processes), ``train_s``, ``exploitability``,
  ``matches_per_s`` and ``peak_rss_mb`` (medians over the workload's
  rounds, each a fresh worker process).
- ``--trace 1`` makes one traced round and reports per-layer metrics.

``--seconds`` is how long a ``play-pursuit`` round plays matches; the
train workloads do a fixed amount of work.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: extra threads gave no wall-clock gain on these sizes
# and only spun on the other core.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SETUP_PROBES = 4
ROUND_TIMEOUT = 150
PROBE_TIMEOUT = 60
E2E_UNITS = {"train_s": "s", "exploitability": "x-uniform",
             "matches_per_s": "1/s", "peak_rss_mb": "MB"}
BUILD_TIMEOUT = 800


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


PR_SET_PDEATHSIG = 1


def die_with_parent(parent=os.getpid()):
    """Run in each child before exec: the kernel kills the child when this
    process ends, even by SIGKILL, so a killed run leaves nothing behind."""
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def python(args, timeout, capture=True):
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=child_env(), timeout=timeout, check=True,
                          stdout=subprocess.PIPE if capture else None,
                          text=True, preexec_fn=die_with_parent)


def setup_time(workload: str) -> float:
    """Seconds from process start to ready, one fresh process."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                           "setup", workload], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          preexec_fn=die_with_parent) as proc:
        try:
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT)[0]:
                raise RuntimeError("set-up probe timed out")
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=PROBE_TIMEOUT) != 0 or line != "ready\n":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        finally:
            proc.kill()
    return dt


def run_round(workload: str, seed: int, index: int, seconds: float,
              trace: int) -> dict:
    fd, out = tempfile.mkstemp(suffix=".json", dir=os.path.join(HERE,
                                                                ".cache"))
    os.close(fd)
    try:
        python([os.path.join(HERE, "worker.py"), "run", workload,
                "--seed", str(seed), "--round", str(index),
                "--seconds", str(seconds),
                "--trace", str(trace), "--out", out],
               timeout=ROUND_TIMEOUT, capture=False)
        with open(out) as fh:
            return json.load(fh)
    finally:
        os.unlink(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "equilearn")):
        print("error: no src/equilearn in this checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, ".cache"), exist_ok=True)
    python([os.path.join(HERE, "checkpoints.py")], timeout=BUILD_TIMEOUT)

    if args.trace:
        rounds = [run_round(args.workload, args.seed, 0, args.seconds, 1)]
    else:
        setup_time(args.workload)          # warm the page and .pyc caches
        # half the probes before the rounds and half after, so the median
        # spans the run rather than one moment of a shared machine
        setups = [setup_time(args.workload) for _ in range(SETUP_PROBES)]
        rounds = [run_round(args.workload, args.seed, i, args.seconds, 0)
                  for i in range(WORKLOADS[args.workload].rounds)]
        setups += [setup_time(args.workload) for _ in range(SETUP_PROBES)]

    if not args.trace:
        print("set-up probes: " + " ".join(f"{t:.4f}" for t in setups))
    for r in rounds:
        print(summary(r), flush=True)
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in rounds[0]["layers"].items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups),
                               "unit": "s"}}
        # a metric whose check failed in some round is left out
        for key, unit in E2E_UNITS.items():
            if all(key in r for r in rounds):
                metrics[key] = {"value": statistics.median(
                    r[key] for r in rounds), "unit": unit}
    play = WORKLOADS[args.workload].match_pairs == 0
    attempted = sum(r["matches"] if play else r["stage_games"]
                    for r in rounds)
    failed = sum(r["forfeits"] for r in rounds) if play else 0
    errors = [e for r in rounds for e in r["errors"]]
    for e in errors:
        print(f"CHECK FAILED: {e}", flush=True)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "loss"


def summary(r: dict) -> str:
    quality = (f"exploitability {r['exploitability']:.4f} (NashConv "
               f"{r['nash_conv']:.4f} / uniform {r['uniform']:.4f})"
               if "exploitability" in r else "exploitability unchecked")
    return (f"train {r['train_s']:.2f}s  matches {r['matches']} in "
            f"{r['match_s']:.2f}s  {quality}"
            f"  stage games {r['stage_games']}  epsilon mean "
            f"{r['epsilon_mean']:.4f} max {r['epsilon_max']:.4f} (worst "
            f"{r['bound_share']:.3f} of the EXP-IX bound)  peak "
            f"{r['peak_rss_mb']:.0f}MB  training_log mean_epsilon "
            + " ".join(f"{e:.4f}" for e in r["logged_epsilon"])
            + (f"  span coverage of train {r['train_coverage']:.4f}"
               f"  searches per match {r['searches_per_match']:.1f}"
               if "train_coverage" in r else ""))


if __name__ == "__main__":
    sys.exit(main())
