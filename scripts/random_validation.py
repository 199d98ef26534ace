#!/usr/bin/env python3
"""Monte-Carlo check of equilibrium correspondence: on random stabilizable/
detectable plants with strictly convex quadratic costs, the closed-loop
steady state must coincide with the optimizer of the steady-state program.

Usage: python scripts/random_validation.py [--trials N] [--seed S]
"""

import argparse

import numpy as np

import ossctl as oc


def random_instance(rng):
    while True:
        n = rng.integers(2, 6)
        m = rng.integers(1, n + 1)
        p = rng.integers(1, n + 1)
        A = rng.normal(size=(n, n))
        A -= (np.linalg.eigvals(A).real.max() + rng.uniform(0.2, 1.0)) * np.eye(n)
        B = rng.normal(size=(n, m))
        C = rng.normal(size=(p, n))
        plant = oc.LtiPlant(A, B, C)
        if not (oc.check_stabilizable(plant) and oc.check_detectable(plant)):
            continue
        try:
            geo = oc.build_kkt_geometry(plant)
        except oc.KktError:
            continue
        G = rng.normal(size=(p + m, p + m))
        H = G @ G.T + 0.1 * np.eye(p + m)
        q = rng.normal(size=p + m)
        return plant, geo, oc.quadratic_objective(H, q, p)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for trial in range(args.trials):
        plant, geo, obj = random_instance(rng)
        d = rng.normal(size=plant.n)
        ref = oc.solve_quadratic_closed_form(plant, geo, obj, d)
        gains = oc.PiGains.from_scalars(1.0, 1.0, plant.m)
        # start at the optimal equilibrium; it must be invariant
        eta0 = np.linalg.solve(gains.K_I, ref.u_star)
        sched = oc.DisturbanceSchedule.constant(d)
        trace = oc.simulate(
            plant, geo, obj, gains, sched, 1.0, dt=1e-3,
            x0=ref.x_star, eta0=eta0, compute_references=False,
        )
        drift = np.linalg.norm(trace.x[-1] - ref.x_star) + np.linalg.norm(
            trace.eta[-1] - eta0
        )
        worst = max(worst, drift)
        print(f"trial {trial:2d}: n={plant.n} m={plant.m} p={plant.p} "
              f"equilibrium drift over 1s = {drift:.2e}")
    print(f"worst drift: {worst:.2e}")


if __name__ == "__main__":
    main()
