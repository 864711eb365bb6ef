"""Records BASELINE.json: every metric of every workload at one seed, with
the program revision, the software and hardware it was measured on, and
why each workload was chosen (from BENCHMARK.json).

    python3 perfbench/record_baseline.py [--seed 0] [--seconds 30]

Run it from the root of a git checkout; the revision is read with git.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run  # sets the BLAS thread variables before numpy is imported

import numpy as np  # noqa: E402


def git_revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                             stdout=subprocess.PIPE, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas_version() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    record = {
        "program_revision": git_revision(),
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas_version(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu": cpu_model(),
        "workloads": {},
    }
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    for name in run.WORKLOAD_NAMES:
        record["workloads"][name] = {
            "why": why[name],
            "end_to_end": measure(name, args.seed, args.seconds, 0),
            "per_layer": measure(name, args.seed, args.seconds, 1),
        }
    with open(os.path.join(run.HERE, "BASELINE.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
