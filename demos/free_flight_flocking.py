"""Uncontrolled flocking from inside the certified region.

A cloud of 200 agents starts with positions spread over a unit interval and
a small velocity spread.  The barycentric certificate confirms the initial
state lies in the flocking region, so no control is needed: free flight
alone aligns the velocities exponentially fast while the spatial radius
stays below the certified bound X_M.
"""

import numpy as np

from flockctrl import (
    ControlPlan,
    ExponentialKernel,
    decay_rate_estimate,
    integrate,
    theorem3_test,
    uniform_box_ensemble,
)

kernel = ExponentialKernel(K=1.0, lam=1.0)
cloud = uniform_box_ensemble(200, 0.0, 1.0, 0.0, 0.1, seed=0)

verdict = theorem3_test(kernel, cloud)
print(f"in flocking region: {verdict.in_region}")
print(f"velocity radius V0 = {verdict.threshold - verdict.margin:.4f} "
      f"vs threshold {verdict.threshold:.4f}")
print(f"certified spatial radius bound X_M = {verdict.X_M:.4f}")

traj = integrate(kernel, cloud, ControlPlan(), horizon=20.0, dt_max=0.01,
                 sample_stride=10)

cols = traj.columns
print("\n   t      X(t)     V(t)")
for i in range(0, cols.t.size, cols.t.size // 10):
    print(f"{cols.t[i]:5.1f}  {cols.X[i]:.5f}  {cols.V[i]:.2e}")

rate = decay_rate_estimate(traj)
print(f"\nfitted decay rate  {rate:.4f}")
print(f"guaranteed minimum {float(kernel.phi(2.0 * verdict.X_M)):.4f}")
assert cols.X.max() <= verdict.X_M
print("spatial radius stayed below X_M for the whole run")
