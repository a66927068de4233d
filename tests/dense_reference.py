"""Dense references for tests: the device unitary as one full matrix, and
the single-photon WDM cascade on the full Fock registry.

`fconv.devices.device_unitary` keeps a device's unitary as chain blocks,
built on demand, and never forms the dim x dim matrix; tests that compare against a dense oracle
(scipy's expm, Heisenberg-picture operators) scatter the blocks into one.
`fconv.experiments.run_wdm` propagates only the single-excitation
amplitudes; `wdm_fock_cascade` runs the same cascade on every Fock state.
"""

import numpy as np

from fconv import Circuit, Converter, ModeRegistry, compile_circuit, make_fock
from fconv.devices import device_unitary


def dense_unitary(registry, dev) -> np.ndarray:
    """The (dim, dim) unitary of ``dev`` on ``registry``, identity off its chains;
    every chain group is built, reached by a state or not."""
    U = np.eye(registry.dim, dtype=complex)
    groups = device_unitary(registry, dev)
    for g, (idx, _) in enumerate(groups):
        U[idx[:, :, None], idx[:, None, :]] = groups.build(g)
    return U


def wdm_fock_cascade(spec) -> np.ndarray:
    """(c_0, c_1, ..., c_K) of ``run_wdm``'s photon, from the converter cascade
    applied to |1, 0, ..., 0> on K + 1 cutoff-1 modes: 2^(K+1) states."""
    K = len(spec.channels)
    registry = ModeRegistry(
        [("pump", spec.pump_frequency, 1)]
        + [(f"idler{k}", f, 1) for k, f in enumerate(spec.idler_frequencies, start=1)]
    )
    cascade = Circuit(
        registry,
        tuple(
            Converter("pump", f"idler{k}", theta, phi)
            for k, (_, theta, phi) in enumerate(spec.channels, start=1)
        ),
    )
    out = compile_circuit(cascade)(make_fock(registry, [1] + [0] * K))
    amp = out.amplitudes.reshape(registry.dims)
    # the photon in mode m: occupation 1 on axis m, 0 elsewhere
    return np.array([amp[tuple(np.eye(K + 1, dtype=int)[m])] for m in range(K + 1)])
