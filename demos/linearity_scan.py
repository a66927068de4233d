"""Linearity of the converted output.

A coherent pump is attenuated over two decades before a weak converter.
The idler photon number tracks the pump power exactly (log-log slope one);
adding a constant detector floor bends the low-power tail upward, which is
how a real measurement distinguishes conversion from spurious background.
"""

import numpy as np

from fconv import run_linearity

theta = np.arcsin(np.sqrt(0.01))  # 1 percent conversion efficiency
transmissions = np.geomspace(1.0, 1e-2, 9)

clean = run_linearity(transmissions, theta, alpha_pump=1.0)
noisy = run_linearity(transmissions, theta, alpha_pump=1.0, noise_floor=1e-4)

y = clean.column("idler_mean_photons")
slope = np.polyfit(np.log(transmissions), np.log(y), 1)[0]
print(f"log-log slope (no floor): {slope:.12f}")
print(f"{'T':>10} {'idler <n>':>14} {'with floor':>14}")
for T, (n,), (nf,) in zip(clean.abscissa, clean.values, noisy.values):
    print(f"{T:10.4f} {n:14.6e} {nf:14.6e}")
