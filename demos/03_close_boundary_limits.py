"""Two exact limits right at the mirror.

A perfectly reflecting plane forces tangential electric fields to vanish
on it, so a parallel pair of atoms pressed against the mirror decouples
from the vacuum whenever both dipoles lie in the tangential plane: every
rate goes to zero and an entangled state survives untouched.  Dipoles
along the normal do the opposite: the rates exactly double and the whole
evolution runs twice as fast as in free space.
"""

import numpy as np

from mirroratoms import (PhysicalConfig, XState, assemble, build_generator,
                         concurrence_curve, propagate)

times = np.linspace(0.0, 10.0, 401)

# tangential dipole pair: frozen dynamics
cfg_frozen = PhysicalConfig.from_ratios(0.5, 1.0, 1e-4, "parallel",
                                        d1=(1, 0, 0), d2=(0, 0, 1))
rates = assemble(cfg_frozen).as_array()
curve = concurrence_curve(
    propagate(build_generator(assemble(cfg_frozen)), XState.symmetric(),
              times))
print("tangential pair at y/L = 1e-4:")
print(f"  largest rate        {np.max(np.abs(rates)):.2e} Gamma_0")
print(f"  concurrence drift   {np.max(np.abs(curve - 1.0)):.2e} over "
      f"Gamma_0 tau <= 10")

# normal dipoles: factor-two speedup
cfg_fast = cfg_frozen.with_(d1=np.array([0.0, 1.0, 0.0]),
                            d2=np.array([0.0, 1.0, 0.0]),
                            y=1e-3)
cs_free = assemble(cfg_fast, include_boundary=False)
ratio = assemble(cfg_fast).as_array() / cs_free.as_array()
gen_b = build_generator(assemble(cfg_fast))
gen_f = build_generator(cs_free)
c_mirror = concurrence_curve(propagate(gen_b, XState.symmetric(), times))
c_free_2t = concurrence_curve(propagate(gen_f, XState.symmetric(),
                                        2.0 * times))
print("\nnormal dipoles at y/L = 1e-3:")
print(f"  rate ratio mirror/free   {ratio}")
print(f"  max |C_mirror(t) - C_free(2t)| = "
      f"{np.max(np.abs(c_mirror - c_free_2t)):.2e}")
