"""The dense full Lagrange basis of the test helpers: cardinality, symmetry, native-space Gram."""

import numpy as np
import pytest

from spherelag.kernel import assemble_saddle, harmonic_basis_for, kernel_matrix
from spherelag.solver import SaddleSystem, factor_solve

from helpers import LagrangeBasis, eval_columns, fib, full_basis, probes, rng, spec


def test_columns_are_cardinal_at_the_nodes():
    basis = full_basis(150)
    vals = eval_columns(basis, basis.nodes.points)
    assert np.abs(vals - np.eye(150)).max() < 1e-8


def test_coefficients_satisfy_moment_conditions():
    basis = full_basis(150)
    phi = harmonic_basis_for(basis.spec).eval(basis.nodes.points)
    assert np.abs(phi.T @ basis.A).max() < 1e-9


def test_coefficient_matrix_symmetry():
    A = full_basis(200).A
    rel = np.abs(A - A.T).max() / np.abs(A).max()
    assert rel < 1e-6


def test_native_inner_recovers_coefficient_entries():
    # <chi_xi, chi_eta> = a_xi^T K a_eta in the native-space semi-inner
    # product equals the coefficient A[eta, xi]: A is the Gram matrix of the chi's
    basis = full_basis(150)
    K = kernel_matrix(basis.spec, basis.nodes.points)
    for xi, eta in ((0, 0), (3, 11), (60, 61), (149, 5)):
        got = basis.A[:, xi] @ K @ basis.A[:, eta]
        assert got == pytest.approx(basis.A[eta, xi], rel=1e-6, abs=1e-12)


def test_native_inner_positive_on_constraint_space():
    # k_m is conditionally positive definite: a^T K a > 0 for moment-free a
    basis = full_basis(150)
    K = kernel_matrix(basis.spec, basis.nodes.points)
    for xi in (0, 42, 99):
        a = basis.A[:, xi]
        assert a @ K @ a > 0.0


def test_lagrange_functions_invariant_under_harmonic_basis_change():
    # replace Phi by Phi R for a random invertible R and rebuild: the Lagrange
    # functions (though not their polynomial coefficients) must not move
    ns = fib(120)
    k2 = spec(2)
    system = assemble_saddle(k2, ns)
    R = rng(2).normal(size=(4, 4)) + 4.0 * np.eye(4)
    n = len(ns)
    M = system.matrix.copy()
    M[:n, n:] = M[:n, n:] @ R
    M[n:, :n] = M[:n, n:].T
    rhs = np.zeros((n + 4, n))
    rhs[:n, :n] = np.eye(n)
    A2, C2 = factor_solve(SaddleSystem(n=n, p=4, matrix=M), rhs)
    rotated = LagrangeBasis(nodes=ns, spec=k2, A=A2, C=R @ C2)

    reference = full_basis(120)
    pr = probes(600)
    assert np.abs(eval_columns(rotated, pr) - eval_columns(reference, pr)).max() < 1e-9


def test_coefficient_norm_bounded_by_theta_inverse():
    # ||a||_2 <= ||y||_2 / lambda_min(P_perp K P_perp) for interpolation data y
    ns = fib(90)
    k2 = spec(2)
    K = kernel_matrix(k2, ns.points)
    phi = harmonic_basis_for(k2).eval(ns.points)
    q, _ = np.linalg.qr(phi)
    P = np.eye(90) - q @ q.T
    # smallest nonzero eigenvalue of P K P bounds the quadratic form on the
    # constraint space; the p zero modes from the projector are excluded
    w = np.linalg.eigvalsh(P @ K @ P)
    theta = w[w > 1e-10].min()
    system = assemble_saddle(k2, ns)
    for seed in range(4):
        y = rng(seed).normal(size=90)
        a, _ = factor_solve(system, np.concatenate([y, np.zeros(4)]))
        assert np.linalg.norm(a) <= np.linalg.norm(y) / theta * (1.0 + 1e-10)
