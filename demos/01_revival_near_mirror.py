"""Entanglement decay and revival for atoms near a mirror.

Two atoms accelerate along x in front of a reflecting plane, both with
their dipoles along the acceleration, starting in the maximally entangled
symmetric state.  In free space the concurrence just decays.  With the
mirror close by (y/L = 1/10) the vertical arrangement kills the
entanglement and then briefly resurrects it, while the parallel
arrangement only slows the decay.

Writes revival_curves.csv and, when matplotlib is importable, a PNG.
"""

import csv

import numpy as np

from mirroratoms import (PhysicalConfig, XState, assemble, build_generator,
                         concurrence_curve, propagate)

times = np.linspace(0.0, 20.0, 801)
curves = {}

for alignment in ("parallel", "vertical"):
    cfg = PhysicalConfig.from_ratios(
        a_over_omega=0.5, omega_L=1.0, y_over_L=0.1, alignment=alignment,
        d1=(1, 0, 0), d2=(1, 0, 0))
    gen = build_generator(assemble(cfg))
    curves[alignment] = concurrence_curve(
        propagate(gen, XState.symmetric(), times))

cfg_free = PhysicalConfig.from_ratios(0.5, 1.0, 0.1, "parallel",
                                      d1=(1, 0, 0), d2=(1, 0, 0))
gen_free = build_generator(assemble(cfg_free, include_boundary=False))
curves["free_space"] = concurrence_curve(
    propagate(gen_free, XState.symmetric(), times))

dead = curves["vertical"] <= 1e-12
if dead.any() and curves["vertical"][np.argmax(dead):].max() > 1e-6:
    i_death = np.argmax(dead)
    i_birth = i_death + np.argmax(curves["vertical"][i_death:] > 1e-12)
    print(f"vertical case: sudden death near Gamma0*tau = "
          f"{times[i_death]:.2f}, revival near {times[i_birth]:.2f}, "
          f"revived peak {curves['vertical'][i_birth:].max():.4f}")
print(f"parallel case: C({times[-1]:.0f}) = {curves['parallel'][-1]:.4f} "
      f"(no zero crossing: {(curves['parallel'] > 0).all()})")

with open("revival_curves.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["gamma0_tau", "parallel", "vertical", "free_space"])
    for i, t in enumerate(times):
        writer.writerow([t, curves["parallel"][i], curves["vertical"][i],
                         curves["free_space"][i]])
print("wrote revival_curves.csv")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for label, style in (("parallel", "-"), ("vertical", "-"),
                         ("free_space", "--")):
        ax.plot(times, curves[label], style, label=label.replace("_", " "))
    ax.set_xlabel(r"$\Gamma_0 \tau$")
    ax.set_ylabel("concurrence")
    ax.set_title("Initial |S>, dipoles along the acceleration, y/L = 1/10")
    ax.legend()
    fig.tight_layout()
    fig.savefig("revival_curves.png", dpi=150)
    print("wrote revival_curves.png")
