#!/usr/bin/env python3
"""Limiting distributions of the rescaled spin sums.

Three regimes, all checked against exact finite-size laws:

  * a quadratic maximum gives a Gaussian with the susceptibility as its
    variance (sqrt(N) normalization);
  * the critical point gives the quartic-exponential law under N^(3/4)
    normalization;
  * coexisting maxima give a half/half mixture of point masses for the
    magnetization, and a Gaussian once conditioned near one phase.
"""

import numpy as np

from meanfield_lab import (
    ModelSpec,
    build_limit_law,
    ks_distance,
    normalized_sum_law,
    pressure_limit,
    susceptibility_cw,
    validate_model,
)


def cw(J, h=0.0):
    return validate_model(ModelSpec(n=1, alpha=(1.0,), J=((J,),), h=(h,)))


print("=== Gaussian regime: J = 0.5, h = 0 ===")
model = cw(0.5)
cls = pressure_limit(model).maxima[0]
law = build_limit_law(model, cls)
print(f"  limit variance (susceptibility) = {law.cov[0, 0]:.6f}")
for N in (250, 1000, 4000):
    exact = normalized_sum_law(model, [N], [0.0], k=1)
    print(f"  N = {N:5d}: exact rescaled variance = {exact.variance():.6f}, "
          f"KS to the Gaussian = {ks_distance(exact, law):.4f}")

print("\n=== Critical regime: J = 1, h = 0 ===")
critical = cw(1.0)
quartic = build_limit_law(critical, pressure_limit(critical).maxima[0])
print(f"  type k = {quartic.k}; "
      f"density proportional to exp({quartic.form(np.array([1.0])):+.4f} x^4)")
for N in (500, 2000, 4000):
    exact = normalized_sum_law(critical, [N], [0.0], k=2)
    print(f"  N = {N:5d}: KS distance to the quartic law = "
          f"{ks_distance(exact, quartic):.4f}")

print("\n=== Coexistence: J = 1.2, h = 0 ===")
model = cw(1.2)
mixture = build_limit_law(model)
for pt, w in zip(mixture.points[:, 0], mixture.weights):
    print(f"  magnetization mass {w:.3f} at {pt:+.6f}")

mu0 = float(mixture.points[-1, 0])
chi = susceptibility_cw(1.2, 0.0, mu0)
print(f"  conditioned near +mu0 the rescaled sum is Gaussian with "
      f"variance chi = {chi:.6f}")
for N in (500, 2000):
    exact = normalized_sum_law(model, [N], [mu0], k=1, condition_ball=0.3)
    print(f"  N = {N:5d}: conditioned exact variance = {exact.variance():.6f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    from meanfield_lab import law_density

    exact = normalized_sum_law(critical, [4000], [0.0], k=2)
    xs = exact.points[:, 0]
    keep = np.abs(xs) < 4
    width = xs[1] - xs[0]
    fig, ax = plt.subplots(figsize=(5, 3.5))
    ax.bar(xs[keep], exact.probs[keep] / width, width=width, alpha=0.4,
           label="exact, N = 4000")
    grid = np.linspace(-4, 4, 400)
    ax.plot(grid, [law_density(quartic, [x]) for x in grid], "k-",
            label="quartic-exponential limit")
    ax.set_xlabel("rescaled sum")
    ax.set_ylabel("density")
    ax.legend()
    fig.tight_layout()
    fig.savefig("critical_law.png", dpi=120)
    print("\nWrote critical_law.png")
except ImportError:
    pass
