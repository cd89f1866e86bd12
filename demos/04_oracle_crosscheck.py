"""Cross-check the closed-form spectral tensors against direct quadrature.

The production rates come from analytic tensors.  An independent path
evaluates the regularized field correlation along the orbit and Fourier
transforms it numerically: one trapezoid sum along a line below the real
axis, where the correlation is analytic, gives the epsilon -> 0 limit.
This script prints the two side by side for one configuration (takes
well under a second; the full randomized battery is
`mirroratoms validate`).
"""

from mirroratoms import PhysicalConfig, fourier_oracle, spectral_prefactor
from mirroratoms.coefficients import spectral_tensor

cfg = PhysicalConfig.from_ratios(a_over_omega=0.5, omega_L=1.0,
                                 y_over_L=0.7, alignment="parallel")
pref = spectral_prefactor(1.0, cfg.a)

print(f"a/omega = {cfg.a}, omega L = {cfg.L}, y/L = {cfg.y_over_L}, "
      f"{cfg.alignment} alignment, cross pair (1,2)\n")
print(f"{'part':>9s} {'mn':>4s} {'closed form':>14s} {'quadrature':>14s} "
      f"{'rel diff':>10s}")

for part, sign in (("free", 1.0), ("boundary", -1.0)):
    tensor = spectral_tensor(cfg, (1, 2), part).entries
    for m in range(1, 4):
        for n in range(1, 4):
            closed = sign * pref * tensor[m - 1, n - 1]
            if closed == 0.0:
                continue
            res = fourier_oracle(part, m, n, (1, 2), cfg, 1.0)
            rel = abs(res.value - closed) / abs(closed)
            flag = "" if res.converged else "  (not converged)"
            print(f"{part:>9s} {m}{n:>2d} {closed:14.6e} "
                  f"{res.value:14.6e} {rel:10.2e}{flag}")
