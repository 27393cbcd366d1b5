"""Steering a cloud into the flocking region under a volume budget.

Here the sparsity constraint bounds the *area* of the actuated region in
position-velocity space instead of the mass it carries: a single thin band
of Lebesgue area at most c = 1, along the edge of the velocity support
farther from the barycenter, pushes the agents there toward it (the
fastest down, or the slowest up).  Each step lasts exactly the band
half-width and shrinks the velocity extent by at least that much, so the
whole strategy uses control time at most W0.
"""

import numpy as np

from flockctrl import (
    ControlPlan,
    PowerLawKernel,
    VolumeBudget,
    complete_strategy,
    decay_rate_estimate,
    integrate,
    support_box,
    uniform_box_ensemble,
)

kernel = PowerLawKernel(K=1.0, gamma=1.0)
cloud = uniform_box_ensemble(400, 0.0, 1.0, 0.0, 1.0, seed=7)
c = 1.0

result = complete_strategy(kernel, cloud, VolumeBudget(c))
box0 = support_box(cloud)
box1 = support_box(result.final)

bottom = sum(p.sign < 0.0 for p in result.plan.pieces)
print(f"band steps              {len(result.records)} ({bottom} on the bottom edge)")
print(f"total control time      {result.total_control_time:.3f} "
      f"(guaranteed <= W0 = {float(box0.w[0]):.3f})")
print(f"velocity extent         {float(box0.w[0]):.4f} -> {float(box1.w[0]):.6f} "
      f"(target eta = {result.eta:.6f})")
print(f"spatial extent          {float(box0.y[0]):.4f} -> {float(box1.y[0]):.4f} "
      f"(guaranteed <= {float(box0.y[0]) + float(box0.w[0]) ** 2:.4f})")

worst_area = max(r.max_omega_area for r in result.records)
print(f"worst band area         {worst_area:.4f} (budget c = {c})")
print(f"terminal certificate    {result.terminal_verdict.in_region}")

post = integrate(kernel, result.final, ControlPlan(), horizon=10.0,
                 dt_max=0.01, t0=result.plan.t_end, sample_stride=10)
print(f"post-control decay rate {decay_rate_estimate(post):.4f}")
print(f"final velocity radius   {post.columns.V[-1]:.2e}")
