"""Pump depletion and the classical-signal limit.

The exact trilinear interaction (quantized signal) is compared against the
linearized beam-splitter converter while the coherent signal amplitude
grows and eta_tau * |alpha_s| is held at pi/2.  The fidelity of the reduced
pump+idler state against the converter prediction climbs toward one
roughly as 1 - 0.6 / alpha_s^2: the signal behaves classically only when it
is bright enough not to notice losing one photon per conversion.
"""

import numpy as np

from fconv import ModeRegistry, make_fock, run_depletion_convergence

reg = ModeRegistry([("pump", 2.0, 1)])
res = run_depletion_convergence([2.0, 3.0, 4.0, 5.0], np.pi / 2, make_fock(reg, [1]))

print(f"{'alpha_s':>8} {'fidelity':>18} {'(1-F) * alpha^2':>16}")
for a_s, (fid,) in zip(res.abscissa, res.values):
    print(f"{a_s:8.1f} {fid:18.12f} {(1 - fid) * a_s**2:16.4f}")
