"""Full Lagrange bases.

Each Lagrange function chi_xi = sum_zeta A[zeta, xi] k(., zeta) + poly part is
cardinal at the nodes. The coefficient matrix A is symmetric (it equals the
Gram matrix of the chi's in the native-space semi-inner product) and its
entries decay exponentially away from the diagonal, which is what makes
local variants work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import NodeSet
from .kernel import KernelSpec, assemble_saddle, evaluate_expansion
from .solver import factor_solve

FULL_BASIS_CAP = 20_000


@dataclass
class LagrangeBasis:
    """All N Lagrange functions of a node set: A is (N, N), C is (m^2, N)."""

    nodes: NodeSet
    spec: KernelSpec
    A: np.ndarray
    C: np.ndarray


def full_lagrange(nodes, spec):
    """Solve the bordered system for all N cardinal right-hand sides at once."""
    n = len(nodes)
    if n > FULL_BASIS_CAP:
        raise ValueError(f"full basis at N = {n} exceeds the dense cap {FULL_BASIS_CAP}")
    system = assemble_saddle(spec, nodes)
    rhs = np.zeros((n + spec.poly_dim, n))
    rhs[:n, :n] = np.eye(n)
    A, C = factor_solve(system, rhs)
    return LagrangeBasis(nodes=nodes, spec=spec, A=A, C=C)


def eval_columns(basis, points):
    """Values of all N Lagrange functions at arbitrary points, (P, N)."""
    return evaluate_expansion(basis.spec, basis.nodes.points, basis.A, basis.C, points)


def gram_discrete(points, basis):
    """Discrete Gram G[k, j] = sum_zeta phi_k(zeta) phi_j(zeta) over the points."""
    phi = basis.eval(np.asarray(points, dtype=np.float64))
    return phi.T @ phi
