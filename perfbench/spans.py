"""Outside-in tracer: wraps fconv's public functions and records spans.

Nothing in fconv is edited.  While a `Tracer` is installed, every module
binding of each wrapped function is replaced, so that calls through names
imported with `from .fock import apply_matrix` (in `devices` and
`experiments`) or through scipy's `expm` bound in `fconv.devices` are seen
too.  Spans stay in memory; `layer_metrics` turns them into per-layer self
times, where a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, attribute) of every function whose calls count as that layer
LAYERS = {
    "cli.main": [("fconv.cli", "main")],
    "cli.parse": [("fconv.cli", "parse_args")],
    "cli.write_csv": [("fconv.cli", "write_csv")],
    "experiments.runner": [
        ("fconv.experiments", name)
        for name in (
            "run_linearity",
            "run_fringe",
            "run_noise_comparison",
            "run_depletion_convergence",
            "run_wdm",
        )
    ],
    "devices.apply_device": [("fconv.devices", "apply_device")],
    "devices.unitary": [("fconv.devices", "device_unitary")],
    "devices.generator": [
        ("fconv.devices", name)
        for name in ("converter_generator", "amplifier_generator", "trilinear_generator")
    ],
    "devices.expm": [("fconv.devices", "expm")],
    "fock.apply_matrix": [("fconv.fock", "apply_matrix")],
    "fock.apply_loss": [("fconv.fock", "apply_loss")],
    "fock.state_prep": [
        ("fconv.fock", name)
        for name in ("make_vacuum", "make_fock", "make_coherent", "product_state", "to_density")
    ],
    "fock.observable": [
        ("fconv.fock", name)
        for name in ("mean_photon", "quadrature_variance", "reduced_density", "fidelity_pure_mixed")
    ],
    "gaussian.apply": [("fconv.gaussian", "gaussian_apply")],
    "gaussian.observable": [("fconv.gaussian", "gaussian_mean_photon")],
    "registry.occupations": [("fconv.registry", "ModeRegistry.occupations")],
}

# Layers whose wrapped calls receive Fock states; their largest argument
# state gives fock.state_bytes.max.
_STATE_ARG_LAYERS = {
    "devices.apply_device",
    "fock.apply_matrix",
    "fock.apply_loss",
    "fock.state_prep",
    "fock.observable",
}
_COMPLEX_BYTES = 16


def _state_bytes(arg) -> int:
    """Bytes of a Fock state's array, computed from its registry (not measured)."""
    reg = getattr(arg, "registry", None)
    if reg is None:
        return 0
    if hasattr(arg, "amplitudes"):
        return reg.dim * _COMPLEX_BYTES
    if hasattr(arg, "matrix"):
        return reg.dim**2 * _COMPLEX_BYTES
    return 0


class Tracer:
    """Records one span per wrapped call while installed.

    Use as a context manager around the calls to trace; the original
    bindings are restored on exit.
    """

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.max_state_bytes = 0
        self.max_unitary_dim = 0
        self.csv_bytes = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        state_args = layer in _STATE_ARG_LAYERS

        def traced(*args, **kwargs):
            if state_args:
                self.max_state_bytes = max(
                    self.max_state_bytes, max(map(_state_bytes, args), default=0)
                )
            if layer == "devices.unitary":
                self.max_unitary_dim = max(self.max_unitary_dim, args[0].dim)
            index = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if layer == "cli.write_csv":
                self.csv_bytes += os.path.getsize(args[1])
            return result

        return traced

    def __enter__(self):
        fconv_modules = [
            m for name, m in list(sys.modules.items()) if name == "fconv" or name.startswith("fconv.")
        ]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                if "." in attr:  # a method: patch the class attribute
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    self._patch(owner, attr, self._wrap(layer, vars(owner)[attr]))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                for module in fconv_modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
        return self

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def counts(self) -> Counter:
        return Counter(layer for layer, *_ in self.spans)

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-layer (self seconds, inclusive seconds) summed over all spans."""
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for i, (layer, start, end, _) in enumerate(self.spans):
            own[layer] += end - start - child[i]
            total[layer] += end - start
        return dict(own), dict(total)


# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = {
    "devices.generator.s": "s",
    "devices.expm.calls": "count",
    "devices.expm.s": "s",
    "devices.unitary.calls": "count",
    "devices.unitary.s": "s",
    "devices.unitary.max_dim": "dim",
    "devices.unitary_reuse": "ratio",
    "devices.apply_device.calls": "count",
    "devices.apply_device.s": "s",
    "fock.apply_matrix.calls": "count",
    "fock.apply_matrix.s": "s",
    "fock.apply_loss.calls": "count",
    "fock.apply_loss.s": "s",
    "fock.state_prep.calls": "count",
    "fock.state_prep.s": "s",
    "fock.observable.calls": "count",
    "fock.observable.s": "s",
    "fock.state_bytes.max": "bytes_computed",
    "gaussian.apply.calls": "count",
    "gaussian.apply.s": "s",
    "gaussian.observable.s": "s",
    "experiments.runner.s": "s",
    "experiments.self.s": "s",
    "cli.parse.s": "s",
    "cli.write_csv.s": "s",
    "cli.write_csv.bytes": "bytes",
    "cli.self.s": "s",
    "registry.occupations.calls": "count",
    "registry.occupations.s": "s",
    "trace.traced_scan_s_min": "s",
    "trace.untraced_scan_s_min": "s",
    "trace.overhead": "ratio",
}


def layer_metrics(tracer: Tracer, scans: int) -> dict[str, float]:
    """Per-layer metrics, per scan, from the spans of `scans` traced scans.

    Every `.s` is a self time except `experiments.runner.s`, the runners'
    inclusive time; the `trace.*` metrics are left to the caller.
    """
    calls = tracer.counts()
    own, total = tracer.self_times()
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer] / scans
        m[f"{layer}.s"] = own.get(layer, 0.0) / scans
    m["experiments.runner.s"] = total.get("experiments.runner", 0.0) / scans
    m["experiments.self.s"] = own.get("experiments.runner", 0.0) / scans
    m["cli.self.s"] = own.get("cli.main", 0.0) / scans
    m["cli.write_csv.bytes"] = tracer.csv_bytes / scans
    m["devices.unitary.max_dim"] = tracer.max_unitary_dim
    m["fock.state_bytes.max"] = tracer.max_state_bytes
    unitaries = calls["devices.unitary"]
    m["devices.unitary_reuse"] = calls["fock.apply_matrix"] / unitaries if unitaries else 0.0
    return {name: m[name] for name in PER_LAYER if name in m}
