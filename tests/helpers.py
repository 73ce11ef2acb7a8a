"""Shared builders for the test suite.

Node sets and bases are cached per-process so the expensive constructions
(dense Lagrange solves, footprint sweeps) happen once even when several test
modules need the same object. Treat everything returned here as read-only.
The dense full Lagrange basis lives here, not in the package: it is the tests'
reference for the local basis, O(N^3) in time and 2 x 8 (N + m^2)^2 bytes in
memory, so the tests call it at N <= 900 only.
"""

import tracemalloc
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

import spherelag as sl
from spherelag.solver import _openblas_thread_controls


@dataclass
class LagrangeBasis:
    """All N Lagrange functions of a node set: A is (N, N), C is (m^2, N).

    Each Lagrange function chi_xi = sum_zeta A[zeta, xi] k(., zeta) + poly part
    is cardinal at the nodes. A is symmetric (it equals the Gram matrix of the
    chi's in the native-space semi-inner product) and its entries decay
    exponentially away from the diagonal, which is what makes local variants
    work.
    """

    nodes: sl.NodeSet
    spec: sl.KernelSpec
    A: np.ndarray
    C: np.ndarray


def full_lagrange(nodes, spec):
    """Solve the bordered system for all N cardinal right-hand sides at once."""
    n = len(nodes)
    system = sl.assemble_saddle(spec, nodes)
    rhs = np.zeros((n + spec.poly_dim, n))
    rhs[:n, :n] = np.eye(n)
    A, C = sl.factor_solve(system, rhs)
    return LagrangeBasis(nodes=nodes, spec=spec, A=A, C=C)


def eval_columns(basis, points):
    """Values of all N Lagrange functions at arbitrary points, (P, N)."""
    return sl.evaluate_expansion(basis.spec, basis.nodes.points, basis.A, basis.C, points)


def traced_peak(fn):
    """Peak bytes traced while fn runs (numpy reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@lru_cache(maxsize=None)
def fib(n):
    return sl.gen_fibonacci(n)


@lru_cache(maxsize=None)
def ico(level):
    return sl.gen_icosahedral(level)


@lru_cache(maxsize=None)
def spec(m=2):
    return sl.KernelSpec(m)


@lru_cache(maxsize=None)
def full_basis(n, m=2):
    return full_lagrange(fib(n), spec(m))


@lru_cache(maxsize=None)
def local_basis(n, m=2, fixed_n=None):
    rule = None if fixed_n is None else sl.FootprintRule(fixed_n=fixed_n)
    return sl.build_local_basis(fib(n), spec(m), rule)


@lru_cache(maxsize=None)
def probes(n=2000):
    return sl.probe_sequence(n)


def blas_thread_counts():
    """The thread count of every OpenBLAS loaded in the process."""
    return [get() for get, _ in _openblas_thread_controls()]


def rng(seed=0):
    return np.random.default_rng(seed)


def random_unit_points(n, seed=0):
    """Uniform points on the sphere via normalized Gaussians."""
    g = rng(seed).normal(size=(n, 3))
    return g / np.linalg.norm(g, axis=1, keepdims=True)
