"""Shared builders for the test suite.

Node sets and bases are cached per-process so the expensive constructions
(dense Lagrange solves, footprint sweeps) happen once even when several test
modules need the same object. Treat everything returned here as read-only.
"""

from functools import lru_cache

import numpy as np

import spherelag as sl
from spherelag.solver import _openblas_thread_controls


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
    return sl.full_lagrange(fib(n), spec(m))


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
