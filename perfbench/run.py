"""fconv benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The scans run in a worker interpreter
(worker.py) that imports fconv from this checkout's `src/`, with the BLAS
thread count fixed through its environment.  With `--trace 0` the last line
of stdout holds the end-to-end metrics, with `--trace 1` the per-layer
metrics of a traced run.  The line before it, prefixed `info: `, records the
machine, the library versions, the BLAS threads and the problem sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 170.0

END_TO_END = {
    "scan_s_min": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update((var, BLAS_THREADS) for var in BLAS_THREAD_VARS)
    # The worker starts set-up probes of its own; in a session of its own they
    # share its process group, so one signal stops them all.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):  # the group may have ended already
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fconv" / "cli.py").is_file():
        print(f"perfbench: no fconv sources under {SRC}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit, so the worker and its probes are killed
    # and reaped and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result = _worker(
            ["run", str(SRC), out_dir, args.workload, str(args.seed), str(args.seconds), str(args.trace)],
            TIME_LIMIT_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print("info: " + json.dumps(result["info"], sort_keys=True))
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
