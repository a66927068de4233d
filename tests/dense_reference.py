"""Dense references for tests: the device unitary as one full matrix.

`fconv.devices.device_unitary` keeps a device's unitary as chain blocks and
never forms the dim x dim matrix; tests that compare against a dense oracle
(scipy's expm, Heisenberg-picture operators) scatter the blocks into one.
"""

import numpy as np

from fconv.devices import device_unitary


def dense_unitary(registry, dev) -> np.ndarray:
    """The (dim, dim) unitary of ``dev`` on ``registry``, identity off its chains."""
    U = np.eye(registry.dim, dtype=complex)
    for idx, B in device_unitary(registry, dev):
        U[idx[:, :, None], idx[:, None, :]] = B
    return U
