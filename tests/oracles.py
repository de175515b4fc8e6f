"""Reference routes that the fast code is checked against: per-point loops
and dense matrix constructions."""

import numpy as np

from gfwigner.net import (
    all_plus_signs,
    basis_index,
    ray_generators,
    ray_projector,
    u_omega_gates,
    u_omega_matrix,
)
from gfwigner.pauli import to_matrix, translation_for
from gfwigner.phasespace import BinaryPoint, wedge
from gfwigner.wigner import all_points, point_operator


def point_operator_sum(net, alpha: BinaryPoint) -> np.ndarray:
    """Independent route: A(alpha) = N^-2 sum_beta f(beta) (-1)^<alpha,beta> T_beta."""
    field = net.field
    N = field.N
    A = np.zeros((N, N), dtype=complex)
    for beta in all_points(field):
        sign = net.f(beta) * (-1) ** wedge(alpha, beta)
        A += sign * to_matrix(translation_for(beta))
    return A / (N * N)


def translation_from_points(net, beta: BinaryPoint) -> np.ndarray:
    """T_beta = f(beta) sum_alpha A(alpha) (-1)^<alpha,beta> (dense check)."""
    field = net.field
    N = field.N
    T = np.zeros((N, N), dtype=complex)
    for alpha in all_points(field):
        T += point_operator(net, alpha) * (-1) ** wedge(alpha, beta)
    return net.f(beta) * T


def autocorrelation(grid, beta: BinaryPoint):
    """sum_alpha W(alpha) W(alpha + beta)."""
    values = grid.values
    total = 0
    for (qb, pb), w in values.items():
        total += w * values[(qb ^ beta.qbits, pb ^ beta.pbits)]
    return total


def purity_identity_residual_loop(grid):
    """Max over beta of |sum_a W(a)(-1)^<a,b>|^2 - N sum_a W(a)W(a+b)|, one
    beta at a time: O(N^4)."""
    field = grid.field
    values = grid.values
    worst = 0.0
    for beta in all_points(field):
        s = sum(
            w * (-1) ** wedge(BinaryPoint(qb, pb, field.n), beta)
            for (qb, pb), w in values.items()
        )
        worst = max(worst, abs(s * s - field.N * autocorrelation(grid, beta)))
    return worst


def gate_matrix(gate: tuple[str, int, int], n: int) -> np.ndarray:
    """Dense matrix of a single swap/cnot gate on n qubits."""
    name, i, j = gate
    N = 1 << n
    G = np.zeros((N, N), dtype=complex)
    for bits in range(N):
        xi, xj = bits >> i & 1, bits >> j & 1
        if name == "swap":
            out = bits & ~((1 << i) | (1 << j)) | (xj << i) | (xi << j)
        elif name == "cnot":
            out = bits ^ (xi << j)
        else:
            raise ValueError(f"unknown gate {name!r}")
        G[basis_index(out, n), basis_index(bits, n)] = 1
    return G


def u_omega_from_gates(field) -> np.ndarray:
    """Dense U_w as the product of its gate list."""
    U = np.eye(1 << field.n, dtype=complex)
    for gate in u_omega_gates(field):
        U = gate_matrix(gate, field.n) @ U
    return U


def covariant_signs_dense(field, signs: dict) -> dict:
    """Covariant net signs by dense conjugation: P(lambda - 2) =
    U_w P(lambda) U_w^dagger, each derived sign read off Tr(G_k P)."""
    base = all_plus_signs(field)
    base.update(signs)
    U = u_omega_matrix(field)
    P = ray_projector(ray_generators(field, 0), base[0])
    lam = 0
    for _ in range(field.order - 1):
        lam = (lam - 2) % field.order
        P = U @ P @ U.conj().T
        eps = []
        for g in ray_generators(field, lam).gens:
            val = np.trace(to_matrix(g) @ P)
            assert abs(abs(val) - 1) < 1e-10, f"ray {lam} is not a generator eigenstate"
            eps.append(1 if val.real > 0 else -1)
        base[lam] = tuple(eps)
    return base
