"""Cross-checking the closed-form bound by derivative-free search.

The optimizer climbs the controlled-energy-measurement Fisher information
with coordinate-wise passes of staged grid line searches over elementary
rotation moves and multistart: the unitary control turns by one of the d^2 generators of
the Hermitian basis at a time (a diagonal phase, or an X- or Y-type mix of
two levels), and the pure preparation by one of 2d-2 (a phase on one
component, or a real rotation between it and the first).  One restart is
seeded at the analytic optimum, the rest are random; on models satisfying
the moduli condition the search lands on the closed form.
"""

from qmet import g_bound, make_qubit_direction, optimize_cem

model = make_qubit_direction(1.0)

print("theta    t      G(closed)   best found   rel gap   (seeded + 3 random restarts)")
for theta, t in [(0.6, 0.8), (1.0, 1.0), (1.8, 2.1)]:
    sol = g_bound(model, theta, t)
    best, v_star, psi_star = optimize_cem(model, theta, t, budget=(4, 200), seed=2)
    gap = abs(best - sol.G_value) / sol.G_value
    print(f"{theta:5.2f} {t:5.2f} {sol.G_value:12.6f} {best:12.6f} {gap:9.2e}")

print()
print("Larger multistart budget at the central point:")
theta, t = 1.0, 1.0
sol = g_bound(model, theta, t)
best, _, _ = optimize_cem(model, theta, t, budget=(6, 300), seed=9)
print(f"G = {sol.G_value:.6f}; multistart best = {best:.6f} "
      f"(never exceeds the bound beyond rounding)")
