"""Runs one workload in a fresh interpreter and prints its result as JSON.

run.py starts this script with the BLAS thread count fixed in its
environment and `src/` of the checkout on PYTHONPATH.  Usage:

    worker.py probe SRC_DIR
    worker.py run SRC_DIR OUT_DIR WORKLOAD SEED SECONDS TRACE

`probe` only times `import fconv.cli`.  `run` times the same import, then
runs passes until SECONDS have gone by (at least two).  Between passes of an
untraced run it starts SETUP_PROBES `probe` interpreters, spread evenly over
the SECONDS, one at a time.  With TRACE=1 it alternates untraced and traced
passes and starts no probes.  Each scan's CSV is checked by the oracle after
its timing ends.  The last line of stdout is the result as JSON.
"""

# Only sys and time load before fconv, so the import is timed as a fresh
# interpreter pays it; everything else is imported after that.
import sys
import time

MAX_REASONS = 5  # failure reasons kept and printed; every failure is counted
# Fresh interpreters that only import fconv.cli; with the worker's own import
# they give the samples whose minimum is setup_s.  A shared host's slow
# phases last tens of seconds and only ever lengthen the import, so the
# probes are spread over the whole run and the fastest sample is kept.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60.0


def _import_fconv(src_dir: str) -> float:
    start = time.perf_counter()
    import fconv.cli

    elapsed = time.perf_counter() - start
    from pathlib import Path

    if Path(fconv.cli.__file__).resolve().parents[1] != Path(src_dir).resolve():
        raise SystemExit(f"worker: imported fconv from {fconv.cli.__file__}, not from {src_dir}")
    return elapsed


def _probe_import_s(src_dir: str) -> float:
    """`import fconv.cli` time of a fresh interpreter with this one's environment."""
    import json
    import subprocess

    proc = subprocess.run(
        [sys.executable, __file__, "probe", src_dir],
        stdout=subprocess.PIPE,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout)["import_s"]


def _machine_info() -> dict:
    import os
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Runner:
    """Runs and checks the scans of one workload, counting failures."""

    def __init__(self, scans, out_dir):
        from pathlib import Path

        import fconv.cli

        self.cli = fconv.cli  # main is looked up per call, so a tracer's binding is used
        self.scans = scans
        self.paths = [Path(out_dir) / f"scan{i}.csv" for i in range(len(scans))]
        self.references: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.sizes: dict[str, dict | None] = {}  # None: a Gaussian scan, no Fock space

    def _call(self, argv) -> str | None:
        try:
            code = self.cli.main(argv)
        except Exception:  # a scan that escapes the CLI's own handling is a failure
            import traceback

            traceback.print_exc()
            return "raised"
        return None if code == 0 else f"exit code {code}"

    def gaussian_references(self) -> None:
        import oracle

        for i, scan in enumerate(self.scans):
            if oracle.needs_gaussian_reference(scan):
                path = self.paths[i].with_suffix(".gaussian.csv")
                err = self._call(scan.argv(str(path), backend="gaussian"))
                self.references[i] = "" if err else path.read_text(encoding="utf-8")

    def run_pass(self, tracer=None) -> float:
        """Seconds to run every scan of the pass once; checks each output."""
        import contextlib

        import oracle

        elapsed = 0.0
        for i, scan in enumerate(self.scans):
            argv = scan.argv(str(self.paths[i]))
            with tracer if tracer is not None else contextlib.nullcontext():
                start = time.perf_counter()
                err = self._call(argv)
                elapsed += time.perf_counter() - start
            if err is None:
                text = self.paths[i].read_text(encoding="utf-8")
                err = oracle.check(scan, text, self.references.get(i))
                if err is None and scan.label not in self.sizes:
                    self.sizes[scan.label] = oracle.problem_size(scan, oracle.read_csv(text))
            self.attempted += 1
            if err is not None:
                self.failed += 1
                if len(self.reasons) < MAX_REASONS:
                    self.reasons.append(f"{scan.label}: {err}")
                    print(f"worker: scan failed: {scan.label}: {err}", file=sys.stderr)
        return elapsed


def run(src_dir, out_dir, workload, seed, seconds, trace) -> dict:
    import_s = _import_fconv(src_dir)
    import resource
    import statistics

    from spans import Tracer, layer_metrics
    from workloads import make_pass

    scans = make_pass(workload, seed)
    runner = Runner(scans, out_dir)
    runner.gaussian_references()

    # No separate warm-up: the first pass pays first-call set-up, and the
    # fastest of at least two passes leaves it out.
    tracer = Tracer() if trace else None
    untraced, traced = [], []
    setup = [import_s]
    begin = time.perf_counter()
    deadline = begin + seconds
    probe_every = seconds / SETUP_PROBES
    step_s = 0.0  # no pass starts that the last one says would overrun the deadline
    while time.perf_counter() + step_s < deadline or len(untraced) < 2:
        start = time.perf_counter()
        untraced.append(runner.run_pass())
        if tracer is not None:
            traced.append(runner.run_pass(tracer))
        step_s = time.perf_counter() - start
        due = (len(setup) - 1) * probe_every  # the first probe follows the first pass
        if tracer is None and len(setup) <= SETUP_PROBES and start - begin >= due:
            setup.append(_probe_import_s(src_dir))

    n = len(scans)
    # The fastest pass is the gated timing: on a shared host, phases of slower
    # CPU last tens of seconds and move the median from run to run.
    scan_s_min = min(untraced) / n
    if tracer is None:
        metrics = {
            "scan_s_min": scan_s_min,
            "setup_s": min(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        metrics = layer_metrics(tracer, len(traced) * n)
        traced_min = min(traced) / n
        metrics["trace.traced_scan_s_min"] = traced_min
        metrics["trace.untraced_scan_s_min"] = scan_s_min
        metrics["trace.overhead"] = traced_min / scan_s_min - 1
    info = {
        "workload": workload,
        "seed": seed,
        "scans_per_pass": [s.label for s in scans],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "scan_s_p50": statistics.median(untraced) / n,
        "points_per_s": sum(s.points for s in scans) * len(untraced) / sum(untraced),
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.reasons,
        "sizes": runner.sizes,
        "setup_samples_s": setup,
        **_machine_info(),
    }
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "info": info,
    }


def main(argv) -> int:
    import json

    if argv[:1] == ["probe"] and len(argv) == 2:
        print(json.dumps({"import_s": _import_fconv(argv[1])}))
        return 0
    if argv[:1] != ["run"] or len(argv) != 7:
        print(__doc__, file=sys.stderr)
        return 2
    src_dir, out_dir, workload, seed, seconds, trace = argv[1:]
    result = run(src_dir, out_dir, workload, int(seed), float(seconds), trace == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
