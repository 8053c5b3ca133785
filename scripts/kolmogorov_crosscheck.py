#!/usr/bin/env python3
"""Backward Kolmogorov solve vs Monte-Carlo expectation for the rigid body.

Solves d(rho)/dt = L rho on a box in so(3)* and compares rho(T, m0) with the
ensemble average of the observable over Heun paths started at m0.
"""

import argparse

import numpy as np

from coadjoint.algebra import builtin
from coadjoint.dynamics import casimir
from coadjoint.fields import ScalarField
from coadjoint.kolmogorov import (
    GridGeometry,
    backward_solve,
    interpolate,
    lie_poisson_generator,
    mc_expectation,
    pde_mc_gate,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=48)
    parser.add_argument("--box", type=float, default=1.4)
    parser.add_argument("--horizon", type=float, default=0.2)
    parser.add_argument("--paths", type=int, default=10_000)
    parser.add_argument("--observable", default="m3",
                        choices=["m1", "m2", "m3", "casimir"])
    args = parser.parse_args()

    so3 = builtin("so3")
    K = np.diag([1.0, 0.5, 1.0 / 3.0])
    xi = np.array([[1.0, 0.0, 0.0]])
    m0 = np.array([0.8, 0.45, 0.3])
    if args.observable == "casimir":
        f = casimir(so3)
    else:
        f = ScalarField.coordinate(int(args.observable[1]) - 1, 3, args.observable)

    spec = lie_poisson_generator(so3, K, xi)
    geometry = GridGeometry.cube(-args.box, args.box, args.nodes)
    rho = backward_solve(spec, f, args.horizon, geometry)
    pde_value = interpolate(rho, m0)

    mean, stderr = mc_expectation(spec.system, f, m0, args.horizon, 256, args.paths, seed=2024)

    gate = pde_mc_gate(stderr, geometry)
    print(f"observable          : E[{f.name}(m(T))], T = {args.horizon}")
    print(f"PDE value at m0     : {pde_value:.6f}")
    print(f"MC mean (stderr)    : {mean:.6f} ({stderr:.2e}, {args.paths} paths)")
    print(f"|difference| / gate : {abs(mean - pde_value):.3e} / {gate:.3e}")
    print("verdict             :", "agree" if abs(mean - pde_value) <= gate else "disagree")


if __name__ == "__main__":
    main()
