"""Why frequency conversion is noiseless and amplification is not.

Both devices are driven from vacuum at matched interaction strength.  The
converter leaves the idler quadrature variance pinned at the vacuum 1/4;
the amplifier's idler variance grows as (2 sinh^2 s + 1)/4 and fills with
sinh^2 s spontaneous photons.  The Fock backend reproduces the Gaussian
numbers, confirming the truncation is under control.
"""

import numpy as np

from fconv import run_noise_comparison

ss = np.linspace(0.0, 1.0, 6)
gauss = run_noise_comparison(ss, backend="gaussian")
fock = run_noise_comparison(ss, backend="fock")

print(f"{'s':>6} {'conv var':>10} {'amp var':>10} {'amp <n>':>10} {'sinh^2 s':>10}")
for s, (vc, va, na) in zip(gauss.abscissa, gauss.values):
    print(f"{s:6.2f} {vc:10.6f} {va:10.6f} {na:10.6f} {np.sinh(s) ** 2:10.6f}")

dev = np.max(np.abs(gauss.values - fock.values))
print(f"\nmax fock/gaussian disagreement: {dev:.2e}")
