"""Steering a cloud into the flocking region under a mass budget.

The initial velocity spread is far too large for free flight to align the
agents, so a sparse control is synthesized: at every instant the actuated
region carries at most a fraction c = 0.5 of the total crowd mass, and the
force never exceeds 1 in magnitude.  The strategy sweeps mass columns one
at a time, squeezing the velocity support from both ends until the cloud
enters the certified flocking region; free flight finishes the job.
"""

import numpy as np

from flockctrl import (
    ControlPlan,
    MassBudget,
    PowerLawKernel,
    complete_strategy,
    decay_rate_estimate,
    integrate,
    support_box,
    theorem3_test,
    uniform_box_ensemble,
)

kernel = PowerLawKernel(K=1.0, gamma=1.0)
cloud = uniform_box_ensemble(400, 0.0, 1.0, 0.0, 1.0, seed=7)
c = 0.5

print(f"initially in flocking region: {theorem3_test(kernel, cloud).in_region}")

result = complete_strategy(kernel, cloud, MassBudget(c))
box0 = support_box(cloud)
box1 = support_box(result.final)

print(f"\nfundamental steps       {len(result.records)}")
print(f"total control time      {result.total_control_time:.3f} "
      f"(guaranteed <= {4 * float(box0.w[0]):.3f})")
print(f"velocity extent         {float(box0.w[0]):.4f} -> {float(box1.w[0]):.6f} "
      f"(target eta = {result.eta:.6f})")
print(f"spatial extent          {float(box0.y[0]):.4f} -> {float(box1.y[0]):.4f}")

worst_mass = max(r.max_mass_in_omega for r in result.records)
worst_u = max(r.max_u_sup for r in result.records)
print(f"worst mass in omega     {worst_mass:.4f} (budget c = {c})")
print(f"worst |u|               {worst_u:.4f} (bound 1)")
print(f"terminal certificate    {result.terminal_verdict.in_region}")

# switch the control off and let alignment finish on its own
post = integrate(kernel, result.final, ControlPlan(), horizon=10.0,
                 dt_max=0.01, t0=result.plan.t_end, sample_stride=10)
print(f"\npost-control decay rate {decay_rate_estimate(post):.4f}")
print(f"final velocity radius   {post.columns.V[-1]:.2e}")
