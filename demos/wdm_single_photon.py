"""Single-photon wavelength division multiplexing.

One pump photon passes a cascade of converters, each tuned to a different
signal channel.  The photon ends in a coherent superposition across the
idler frequencies with amplitudes following the product rule
c_k = -e^{-i phi_k} sin(theta_k) prod_{j<k} cos(theta_j).
Choosing theta = (pi/4, pi/2) splits it 50/50 with no residual pump.
"""

import numpy as np

from fconv import WdmSpec, run_wdm

spec = WdmSpec(
    pump_frequency=2.0,
    channels=((1.1, np.pi / 4, 0.0), (0.9, np.pi / 2, 0.0)),
)
res, c = run_wdm(spec)

print(f"residual pump amplitude: {c[0]:.3e}")
print(f"{'channel':>8} {'idler freq':>11} {'probability':>12} {'amplitude':>24}")
for k, (f_i, p), ck in zip(res.abscissa, res.values, c[1:]):
    print(f"{int(k):8d} {f_i:11.3f} {p:12.6f} {ck:24.6f}")
print(f"total probability: {np.sum(np.abs(c) ** 2):.12f}")
