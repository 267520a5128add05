#!/usr/bin/env python3
"""Centralized insurance against an expected-shortfall insurer.

Solves the measure LP whose optimum pins down Pareto-optimal indemnities,
prints each agent's cession schedule, then reprices the same contract with
insurer-optimal (Stackelberg) premiums that move every policyholder to the
boundary of acceptance.

The empirical space has two rare catastrophe states; that is what makes
ceding attractive, since the agents' distortions inflate small exceedance
probabilities well above the insurer's 1/alpha price cap.
"""

import numpy as np

from paretopool import (Distortion, EmpiricalSpace, centralized_welfare,
                        choquet, es, solve_centralized, stackelberg_premiums)


def main() -> None:
    space = EmpiricalSpace(
        np.array([0.30, 0.25, 0.20, 0.12, 0.08, 0.03, 0.015, 0.005]))
    xs = [np.array([0.0, 1.0, 2.0, 4.0, 6.0, 15.0, 30.0, 90.0]),
          np.array([0.5, 0.0, 1.0, 2.0, 5.0, 10.0, 45.0, 60.0]),
          np.array([0.0, 0.5, 1.5, 3.0, 4.0, 20.0, 25.0, 120.0])]
    dists = [Distortion.kahneman_tversky(0.5),
             Distortion.prelec1(0.35),
             Distortion.power(0.55)]
    alpha = 0.15

    contract = solve_centralized(space, xs, dists, alpha)
    print(f"maximising measure Q*: {np.round(contract.q_star, 6).tolist()}")
    print(f"LP welfare frontier value: {contract.value:.6f}\n")

    for i, d in enumerate(dists):
        ded = contract.deductible(i)
        shape = f"deductible at {ded}" if ded is not None else "layered"
        print(f"agent {i} ({d.label()}): cession is {shape}")
        bps = contract.breakpoints[i]
        for k in range(len(bps) - 1):
            s = contract.slopes[i][k]
            if s > 0.0:
                print(f"    cedes {s:4.2f} of layer ({bps[k]:.1f}, {bps[k+1]:.1f}]")

    welfare = centralized_welfare(space, xs, dists, contract)
    pool = contract.indemnity_profiles(space, xs).sum(axis=0)
    print(f"\ninsurer pool ES_{alpha}: {es(space, pool, alpha):.6f}")
    print("gross policyholder gains: "
          + ", ".join(f"{g:.6f}" for g in welfare.gross_gains))
    print(f"aggregate gain {welfare.aggregate_gain:.6f}, "
          f"average over n+1 participants {welfare.average_gain:.6f}")

    premiums = stackelberg_premiums(space, xs, dists, contract)
    priced = centralized_welfare(space, xs, dists, contract, premiums=premiums)
    print("\nStackelberg premiums: "
          + ", ".join(f"{p:.6f}" for p in premiums))
    print("policyholder gains at those premiums: "
          + ", ".join(f"{g:+.2e}" for g in priced.policyholder_gains))
    print(f"insurer gain {priced.insurer_gain:.6f} "
          f"(= aggregate gain {priced.aggregate_gain:.6f})")

    # Sanity: the premium for agent i is exactly the risk reduction the
    # indemnity buys under that agent's own distortion.
    for i, (X, d) in enumerate(zip(xs, dists)):
        I = contract.indemnity_profiles(space, xs)[i]
        drop = choquet(space, X, d) - choquet(space, X - I, d)
        print(f"  agent {i}: risk drop {drop:.6f} vs premium {premiums[i]:.6f}")


if __name__ == "__main__":
    main()
