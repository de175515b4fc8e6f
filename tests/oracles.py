"""Reference routes that the fast code is checked against: per-point loops,
dense matrix constructions (translations by Kronecker products and by one
fancy-index scatter), dense Wigner grids through chi in numpy, the
N^2-point transform of stabilizer grids, stabilizer groups walked by
composing Pauli translations, states read off dense projectors, MUB line
states by one dense translation per line, their overlap report by one
dense product per basis and per pair of bases,
covariant signs by GF(2) solves, the cell-by-cell grid export, the
nested-list `mub` export and the `rays` output from each line's points,
GF(2) arithmetic by explicit matrices and Gauss-Jordan elimination, the
Walsh-Hadamard transform as numpy's in-place butterfly along an axis, and
the mean king's phi_1 as a numpy SVD."""

import json
from fractions import Fraction
from functools import cache
from itertools import islice

import numpy as np

from gfwigner.apps import bell_field, bell_stabilizer, king_lines, mean_king_net
from gfwigner.cli import _axis_names, resolve_net, resolve_state
from gfwigner.errors import (AmbiguousInference, GfwignerError, InvalidDensityMatrix,
                             NonCommutingGenerators)
from gfwigner.galois import field_new, power_ordering
from gfwigner.net import (
    all_plus_signs,
    conjugate_by_u_omega,
    line_displacement,
    line_state,
    mub_overlap_report,
    ray_generators,
    ray_walk,
    u_omega_gates,
    u_omega_matrix,
)
from gfwigner.pauli import (
    _I_POW,
    IDENTITY_ATOL,
    INPUT_ATOL,
    PauliTranslation,
    basis_index,
    compose,
    to_matrix,
    translation,
    translation_for,
)
from gfwigner.phasespace import (BinaryPoint, PhasePoint, all_striations, striation, to_binary,
                                 wedge)
from gfwigner.wigner import (StabilizerGroup, WignerGrid, all_points, check_density_matrix,
                             display_rows, point_operator)

# Every value compared under this bound is a dyadic rational, and at
# n = 1..4 both sides agreed exactly; the bound leaves room for a different
# summation order
ORACLE_ATOL = 1e-15

_XZ = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
}


def class_points(field, label) -> list[tuple[int, int]]:
    """(a, b) pairs of the N - 1 nontrivial members of one striation's class."""
    return list(islice(ray_walk(field, label), field.order))


def to_matrix_kron(t) -> np.ndarray:
    """i^s times the Kronecker product of X^(a_i) Z^(b_i), qubit 0 leftmost."""
    out = np.array([[1]], dtype=complex)
    for i in range(t.n):
        out = np.kron(out, _XZ[(t.a >> i & 1, t.b >> i & 1)])
    return (1j ** t.s) * out


def to_matrix_fancy(t) -> np.ndarray:
    """to_matrix by one fancy-index scatter into np.zeros: entry
    (index(x ^ a), index x) is i^(s + 2 b.x) from the numpy array of _I_POW."""
    N = 1 << t.n
    x = np.arange(N)
    index = np.array([basis_index(k, t.n) for k in range(N)])
    popcount = np.array([k.bit_count() for k in range(N)])
    out = np.zeros((N, N), dtype=complex)
    out[index[x ^ t.a], index] = np.take(_I_POW, (t.s + 2 * popcount[t.b & x]) % 4)
    return out


def ray_projector(gens, signs) -> np.ndarray:
    """P = 2^-n prod_k (I + eps_k G_k); rank-one by construction."""
    N = 1 << gens[0].n
    P = np.eye(N, dtype=complex)
    for eps, g in zip(signs, gens):
        P = P @ (np.eye(N) + eps * to_matrix_kron(g)) / 2
    return P


def a0_from_projectors(projectors) -> np.ndarray:
    """A(0) = N^-1 (sum_lambda P_lambda - I) over the N + 1 ray projectors."""
    N = len(projectors) - 1
    return (sum(projectors) - np.eye(N)) / N


def stabilizer_projector_loop(group) -> np.ndarray:
    """N^-1 sum_{beta in S} g(beta) T_beta, one dense T_beta at a time."""
    n, N = group.field.n, group.field.N
    P = np.zeros((N, N), dtype=complex)
    for (qb, pb), sign in group.elements.items():
        P += sign * to_matrix_kron(translation(n, qb, pb))
    return P / N


def stabilizer_elements_doubling(gens, signs) -> dict:
    """{(qbits, pbits): sign of the canonical T} over the span of the signed
    generators, doubling the set once per generator."""
    n = gens[0].n
    elements = {(0, 0): 1}
    for g, sg in zip(gens, signs):
        sg *= 1 if g.phase_vs_canonical == 0 else -1  # relative to canonical T
        new = {}
        for (qb, pb), sign in elements.items():
            prod = compose(translation(n, qb, pb), translation(n, g.a, g.b))
            key = (prod.a, prod.b)
            assert key not in elements and key not in new, "dependent generators"
            t = prod.phase_vs_canonical
            assert t % 2 == 0, "group member has an odd phase"
            new[key] = sign * sg * (1 if t == 0 else -1)
        elements.update(new)
    return elements


def fix_phase_scalar(v) -> np.ndarray:
    """v times abs(v[i]) / v[i] for the first entry v[i] above IDENTITY_ATOL,
    on numpy scalars."""
    i = int(np.argmax(np.abs(v) > IDENTITY_ATOL))
    return v * (abs(v[i]) / v[i])


def projector_to_state(P) -> np.ndarray:
    """Unit vector spanning a rank-one projector, first nonzero entry made
    real positive: P's column at the first largest diagonal entry."""
    v = P[:, int(np.argmax(np.abs(np.diag(P))))]
    return fix_phase_scalar(v / np.linalg.norm(v))


def mub_bases_per_line(net) -> dict:
    """The N + 1 bases as lists of line states: each ray state from its
    dense projector, moved by one dense translation and one matrix-vector
    product per line."""
    field, bases = net.field, {}
    for st in all_striations(field):
        v = projector_to_state(net.ray(st.label).projector())
        bases[st.label] = [v] + [
            fix_phase_scalar(to_matrix(translation_for(
                to_binary(field, line_displacement(field, line)))) @ v)
            for line in st.lines[1:]]
    return bases


def mub_overlap_report_dense(bases: dict) -> dict:
    """net.mub_overlap_report from every row: one N x N product per basis
    (its Gram matrix) and per pair of bases (their overlaps)."""
    mats = [np.asarray(vectors) for vectors in bases.values()]
    N = mats[0].shape[1]
    gram = max(np.abs(A.conj() @ A.T - np.eye(N)).max() for A in mats)
    cross = max(np.abs(np.abs(A.conj() @ B.T) ** 2 - 1 / N).max()
                for i, A in enumerate(mats) for B in mats[i + 1:])
    return {"max_gram_deviation": float(gram), "max_cross_overlap_deviation": float(cross)}


def line_displacement_search(field, line) -> PhasePoint:
    """The d with a d_q + b d_p = c whose printed bit strings (d_q, d_p) come
    first in lexicographic order, by search over all N^2 points."""
    order = sorted(field.elements(), key=field.bits_str)
    for dq in order:
        for dp in order:
            if field.mul(line.a, dq) ^ field.mul(line.b, dp) == line.c:
                return PhasePoint(dq, dp)
    raise AssertionError(f"no displacement reaches {line}")


def point_operator_sum(net, alpha: BinaryPoint) -> np.ndarray:
    """Independent route: A(alpha) = N^-2 sum_beta f(beta) (-1)^<alpha,beta> T_beta."""
    field = net.field
    N = field.N
    A = np.zeros((N, N), dtype=complex)
    for beta in all_points(field):
        sign = net.f(beta) * (-1) ** wedge(alpha, beta)
        A += sign * to_matrix(translation_for(beta))
    return A / (N * N)


def point_operator_conjugation(net, alpha: BinaryPoint) -> np.ndarray:
    """A(alpha) = T_alpha A(0) T_alpha^dagger by two dense products."""
    A0 = np.asarray(net.a0_matrix())
    if alpha.is_origin:
        return A0
    T = to_matrix(translation_for(alpha))
    return T @ A0 @ T.conj().T


def point_operators_stacked(net) -> np.ndarray:
    """A(alpha) for every point, stacked by flat index (qbits << n) | pbits,
    each T_alpha A(0) T_alpha^dagger by dense products."""
    return np.array([point_operator_conjugation(net, alpha) for alpha in all_points(net.field)])


def point_operator_gram(ops: np.ndarray) -> np.ndarray:
    """Tr(A_alpha^dagger A_beta) for every pair of stacked operators: the Gram
    matrix of their entries, Tr(A_alpha A_beta) for hermitian ones."""
    V = ops.reshape(len(ops), -1)
    return V.conj() @ V.T


def line_operator_sums(net, ops: np.ndarray, label) -> list[np.ndarray]:
    """sum_alpha A(alpha) over each line of striation label, in line order,
    from the stacked operators and each line's own points."""
    field = net.field
    return [sum(ops[(pt.q << field.n) | field.p_to_bits(pt.p)] for pt in line.points(field))
            for line in striation(field, label).lines]


def pauli_sum_dense(n: int, coeffs) -> np.ndarray:
    """pauli.pauli_sum into one complex array: each a's transform (the same
    Python complex sums) scattered to rows index(x ^ a) by fancy indexing."""
    N = 1 << n
    x = np.arange(N)
    index = np.array([basis_index(k, n) for k in range(N)])
    out = np.empty((N, N), dtype=complex)
    for a, row in enumerate(np.reshape(coeffs, (N, N)).tolist()):
        terms = [c * _I_POW[(a & b).bit_count() % 4] for b, c in enumerate(row)]
        out[index[x ^ a], index] = walsh_hadamard(np.array(terms, dtype=object)).tolist()
    return out


def walsh_hadamard(v: np.ndarray) -> np.ndarray:
    """H[..., y] = sum_x v[..., x] (-1)^(x.y) along the last axis (of length
    2^k), by numpy's in-place butterfly over h = 1, 2, 4, ...; unnormalised,
    so int64 and object arrays of ints sum exactly."""
    shape, h = v.shape, 1
    while h < shape[-1]:
        lo, hi = np.moveaxis(v.reshape(*shape[:-1], -1, 2, h), -2, 0)
        v = np.stack((lo + hi, lo - hi), axis=-2).reshape(shape)
        h *= 2
    return v


def wigner_of_loop(net, rho) -> WignerGrid:
    """W(alpha) = Tr(rho A(alpha)), one conjugated point operator and one
    full product rho @ A(alpha) per point."""
    field = net.field
    rho = check_density_matrix(rho, field.n)
    return WignerGrid(field, tuple(
        float(np.trace(rho @ point_operator_conjugation(net, alpha)).real)
        for alpha in all_points(field)))


def wigner_of_chi(net, rho) -> WignerGrid:
    """wigner_of in numpy: the rows d[a, x] = rho[idx x, idx(x ^ a)] by one
    fancy-index gather, chi = i^(a.b) times their butterfly along x, then
    f chi and the butterfly of its q/p-swapped array, over N^2; an imaginary
    part beyond INPUT_ATOL raises at the first point, as in wigner_of."""
    field = net.field
    n, N = field.n, field.N
    rho = np.asarray(check_density_matrix(rho, n), dtype=complex)
    x = np.arange(N)
    index = np.array([basis_index(k, n) for k in x])
    shifts = x[:, None] ^ x[None, :]  # [a, x] -> x ^ a
    popcount = np.array([k.bit_count() for k in range(N)])
    chi = walsh_hadamard(rho[index[None, :], index[shifts]]) * np.take(
        _I_POW, popcount[x[:, None] & x[None, :]] % 4)
    fchi = np.array(net.f_vector()) * chi.reshape(-1)
    hat = walsh_hadamard(fchi.reshape(N, N).T.reshape(-1))
    bad = np.flatnonzero(np.abs(hat.imag / (N * N)) > INPUT_ATOL)
    if bad.size:
        alpha = BinaryPoint(int(bad[0]) >> n, int(bad[0]) & (N - 1), n)
        raise InvalidDensityMatrix(f"complex Wigner value {hat[bad[0]] / (N * N)} at {alpha}")
    return WignerGrid(field, tuple((hat.real / (N * N)).tolist()))


def stabilizer_wigner_transform(net, group) -> WignerGrid:
    """Exact W(alpha) = N^-2 sum_{beta in S} f(beta) g(beta) (-1)^<alpha,beta>
    at all N^2 points as one int64 symplectic transform of f g placed on S:
    the transform of the q/p-swapped array (its transpose as N x N)."""
    field = net.field
    n, N = field.n, field.N
    v = np.zeros(N * N, dtype=np.int64)
    for (qb, pb), g in group.elements.items():
        v[(qb << n) | pb] = net.f(BinaryPoint(qb, pb, n)) * g
    hat = walsh_hadamard(v.reshape(N, N).T.reshape(-1))
    return WignerGrid(field, tuple(hat.tolist()), N * N)


def _canonical_sign(prod, sign: int) -> int:
    """Eigenvalue of the canonical T(prod.a, prod.b) on a state on which the
    operator prod has eigenvalue sign."""
    t = prod.phase_vs_canonical
    if t % 2:
        raise NonCommutingGenerators("group member product has an odd phase")
    return sign if t == 0 else -sign


def group_elements_compose(group) -> dict:
    """StabilizerGroup.elements by one compose of PauliTranslations per
    member, in Gray-code order, the sign carried beside the product."""
    prod, sign = PauliTranslation(group.field.n, 0, 0), 1
    out = {(0, 0): 1}
    for step in range(1, 1 << len(group.gens)):
        k = (step & -step).bit_length() - 1
        prod, sign = compose(prod, group.gens[k]), sign * group.signs[k]
        out[(prod.a, prod.b)] = _canonical_sign(prod, sign)
    return out


def solve_gf2(columns: list[int], target: int) -> int:
    """The mask x with the xor of columns[k] over the set bits k of x equal to
    target; columns and target are GF(2) vectors as bit masks.  Raises
    ValueError when target is outside the span of the columns."""
    basis = {}  # lowest set bit -> (reduced column, combination mask)
    for k, col in enumerate(columns):
        mask = 1 << k
        while col:
            low = col & -col
            if low not in basis:
                basis[low] = (col, mask)
                break
            col ^= basis[low][0]
            mask ^= basis[low][1]
    sol = 0
    while target:
        low = target & -target
        if low not in basis:
            raise ValueError("target not in the span of the columns")
        target ^= basis[low][0]
        sol ^= basis[low][1]
    return sol


def group_sign_compose(group, a: int, b: int) -> int:
    """The group's sign at (a, b), which must lie in its span (else
    ValueError), by composing the generators that a GF(2) solve finds."""
    n = group.field.n
    x = solve_gf2([g.a | g.b << n for g in group.gens], a | b << n)
    prod, sign = PauliTranslation(n, 0, 0), 1
    for k, g in enumerate(group.gens):
        if x >> k & 1:
            prod, sign = compose(prod, g), sign * group.signs[k]
    return _canonical_sign(prod, sign)


def _fmt_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return f"{float(v):.12g}"


def grid_rows(grid) -> list[list]:
    """Grid as rows of values: rows are p descending, columns q ascending."""
    cells = list(grid.values.values())
    return [[cells[i] for i in row] for row in display_rows(grid.field)]


def export_grid_cells(grid, fmt: str, meta: dict | None = None) -> str:
    """cli.export_grid cell by cell: each cell's value made, formatted and
    shaded on its own, and the json document written by json.dumps."""
    field = grid.field
    names = _axis_names(field)
    rows = grid_rows(grid)
    if fmt == "csv":
        lines = ["p\\q," + ",".join(names)]
        for name, row in zip(reversed(names), rows):
            lines.append(name + "," + ",".join(_fmt_value(v) for v in row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "n": field.n,
            "poly": field.poly_str(),
            "exact": grid.exact,
            "axis": names,
            "rows_p_descending": [[_fmt_value(v) for v in row] for row in rows],
        }
        payload.update(meta or {})
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "ascii":
        width = max(len(_fmt_value(v)) for row in rows for v in row)
        label_w = max(len(s) for s in names)
        out = []
        for name, row in zip(reversed(names), rows):
            cells = []
            for v in row:
                shade = "#" if v > 0 else ("o" if v < 0 else ".")
                cells.append(f"{shade} {_fmt_value(v):>{width}}")
            out.append(f"{name:>{label_w}} | " + "  ".join(cells))
        out.append("-" * len(out[-1]))
        header = " " * label_w + " | " + "  ".join(f"  {s:>{width}}" for s in names)
        out.append(header)
        return "\n".join(out) + "\n"
    raise GfwignerError(f"unknown format {fmt!r}")


def wigner_stdout_reference(n: int, state_spec: str, net_spec: str = "default",
                            poly: int | None = None, fmt: str = "json") -> str:
    """What `gfwigner wigner --n n --state state_spec --net net_spec
    --format fmt [--poly]` writes, exported cell by cell: by the numpy chi
    route for a density file, the per-point loop on mean_king_svd_density
    for the meanking_phi1 preset and the N^2-point transform for a
    stabilizer state."""
    net = resolve_net(field_new(n, poly), net_spec)
    if state_spec == "meanking_phi1":
        grid = wigner_of_loop(net, mean_king_svd_density(net.field))
    else:
        kind, state = resolve_state(net.field, state_spec)
        grid = (stabilizer_wigner_transform if kind == "stabilizer" else wigner_of_chi)(net, state)
    return export_grid_cells(grid, fmt, {"net": net.fingerprint()})


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
        for g in ray_generators(field, lam):
            val = np.trace(to_matrix(g) @ P)
            assert abs(abs(val) - 1) < 1e-10, f"ray {lam} is not a generator eigenstate"
            eps.append(1 if val.real > 0 else -1)
        base[lam] = tuple(eps)
    return base


def covariant_signs_solve(field, signs: dict) -> dict:
    """build_net's covariant signs by locating each generator of the image
    ray in the pushed group with a GF(2) solve (group_sign_compose)."""
    base = {**all_plus_signs(field), **signs}
    lam = 0
    for _ in range(field.order - 1):
        pushed = [conjugate_by_u_omega(field, g) for g in ray_generators(field, lam)]
        image = StabilizerGroup(field, pushed, base[lam])
        lam = (lam - 2) % field.order
        base[lam] = tuple(group_sign_compose(image, g.a, g.b)
                          for g in ray_generators(field, lam))
    return base


def rays_stdout_reference(n: int, poly: int | None = None) -> str:
    """`gfwigner rays` output from each line's points (Line.points), through
    an N^2-entry mark table per striation."""
    field = field_new(n, poly)
    axis = power_ordering(field)
    out = []
    for st in all_striations(field):
        out.append(f"striation {st.label} (ray first):")
        marks = {}
        for i, line in enumerate(st.lines):
            for pt in line.points(field):
                marks[(pt.q, pt.p)] = "R" if i == 0 else str(i)
        out += ["  " + " ".join(marks[(q, p)] for q in axis) for p in reversed(axis)]
        out.append("")
    return "\n".join(out) + "\n"


def mub_json_nested(n: int, net: str, bases: dict, overlap_report: dict) -> str:
    """The `mub` document built as nested lists and written by
    json.dumps(indent=2), with its newline."""
    payload = {
        "n": n,
        "net": net,
        "bases": {
            str(lb): [[[round(z.real, 12), round(z.imag, 12)] for z in v] for v in vecs]
            for lb, vecs in bases.items()
        },
        "overlap_report": overlap_report,
    }
    return json.dumps(payload, indent=2) + "\n"


def mub_stdout_nested(n: int, net_spec: str = "covariant", poly: int | None = None) -> str:
    """What `gfwigner mub --n n --net net_spec [--poly]` writes, by the
    per-line bases and the nested-list route; `mub`'s default net is the
    covariant one."""
    net = resolve_net(field_new(n, poly), net_spec)
    bases = mub_bases_per_line(net)
    return mub_json_nested(n, net.fingerprint(), bases, mub_overlap_report(bases))


# -- GF(2) references: the companion matrices as row masks, Gauss-Jordan -----


def companion_rows(field) -> tuple[int, ...]:
    """Rows of the companion matrix M as bit masks (bit j = column j)."""
    rows = [1 << (i + 1) for i in range(field.n - 1)]
    rows.append(field.poly & (field.N - 1))
    return tuple(rows)


def transpose_rows(rows) -> tuple[int, ...]:
    """Row masks of the transpose of a square matrix given by row masks."""
    n = len(rows)
    return tuple(sum((rows[j] >> i & 1) << j for j in range(n)) for i in range(n))


def row_times_all(rows) -> np.ndarray:
    """The row vector a R for every a = 0..2^n - 1, R given by row masks."""
    a = np.arange(1 << len(rows))
    out = np.zeros_like(a)
    for i, row in enumerate(rows):
        out ^= (a >> i & 1) * row
    return out


def traces_by_squaring(field) -> np.ndarray:
    """tr(a) = a + a^2 + ... + a^(2^(n-1)) for every a, each square taken as
    a polynomial (bit i to bit 2i) and reduced modulo the field's polynomial."""
    n = field.n
    t = acc = np.arange(field.N)
    for _ in range(n - 1):
        t = sum((t >> i & 1) << 2 * i for i in range(n))
        for d in range(2 * n - 2, n - 1, -1):
            t = t ^ (t >> d & 1) * (field.poly << d - n)
        acc = acc ^ t
    return acc


def solve_gf2_gauss_jordan(rows: list[int], rhs: list[int], n: int) -> int:
    """Solve the GF(2) system given by row bit masks; returns the solution mask.

    Raises ValueError when the matrix is singular.
    """
    aug = [rows[i] | (rhs[i] << n) for i in range(n)]
    pivot_row_for_col = {}
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if aug[i] >> col & 1), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(2)")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for i in range(n):
            if i != r and aug[i] >> col & 1:
                aug[i] ^= aug[r]
        pivot_row_for_col[col] = r
        r += 1
    sol = 0
    for col, row in pivot_row_for_col.items():
        sol |= (aug[row] >> n & 1) << col
    return sol


def dual_basis_gauss_jordan(field, basis: list[int], traces) -> list[int]:
    """The basis ebar with tr(ebar_i e_j) = delta_ij: row j, column k of the
    system is tr(w^k e_j), with traces[a] = tr(a)."""
    n = field.n
    rows = [sum(int(traces[field.mul(field.pow_omega(k), e)]) << k for k in range(n))
            for e in basis]
    return [solve_gf2_gauss_jordan(rows, [int(i == j) for j in range(n)], n)
            for i in range(n)]


@cache
def _dual_scale(field) -> int:
    """ebar_0, the first element of the canonical basis's dual."""
    canonical = [field.pow_omega(i) for i in range(field.n)]
    return dual_basis_gauss_jordan(field, canonical, traces_by_squaring(field))[0]


def wedge_field_form(field, a: PhasePoint, b: PhasePoint) -> int:
    """Basis-independent wedge: tr(s (q_a p_b - q_b p_a)) with s = ebar_0,
    the dual-basis scaling element (coordinates pair through the trace as
    q_a . p_b = tr(ebar_0 q_a p_b)); the reference for phasespace.wedge."""
    dual_scale = _dual_scale(field)
    cross = field.mul(a.q, b.p) ^ field.mul(b.q, a.p)
    return field.trace(field.mul(dual_scale, cross)) if cross else 0


def mean_king_svd_row(net) -> np.ndarray:
    """phi_1 up to phase: the last right-singular vector of the conjugated
    line states h_1, v_1 and d_1, conjugated; AmbiguousInference when they
    are linearly dependent to IDENTITY_ATOL."""
    ortho = [line_state(net, king_lines(net.field, o)[0]) for o in ("x", "z", "y")]
    _, sv, vh = np.linalg.svd(np.array(ortho).conj())
    if sv[-1] < IDENTITY_ATOL:
        raise AmbiguousInference("the three line states are linearly dependent")
    return vh[-1].conj()


def mean_king_svd_density(field) -> np.ndarray:
    """The meanking_phi1 preset's rho: mean_king_svd_row on mean_king_net,
    phase-fixed (fix_phase_scalar) and normalised, times its conjugate by
    np.outer."""
    v = fix_phase_scalar(mean_king_svd_row(mean_king_net(field)))
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def mean_king_svd_basis(net) -> list[np.ndarray]:
    """mean_king_svd_row phase-fixed, and its translates under Z0 Z1, Y0 Y1
    and X0 X1 by dense matrix-vector products."""
    field, phi1 = net.field, fix_phase_scalar(mean_king_svd_row(net))
    w2 = field.pow_omega(2)
    return [phi1] + [to_matrix(translation_for(to_binary(field, PhasePoint(dq, dp)))) @ phi1
                     for dq, dp in ((0, w2), (w2, w2), (w2, 0))]


def infer_king_outcome_per_branch(net, basis, result: int, observable: str) -> int:
    """The support line (1 or 2) of the observable whose state is not
    orthogonal to basis[result], both states re-read; AmbiguousInference
    unless exactly one qualifies."""
    phi = basis[result]
    consistent = [idx for idx, line in enumerate(king_lines(net.field, observable), start=1)
                  if abs(np.vdot(line_state(net, line), phi)) > INPUT_ATOL]
    if len(consistent) != 1:
        raise AmbiguousInference(f"{len(consistent)} outcomes consistent with result {result}")
    return consistent[0]


def mean_king_simulate_per_branch(net, basis) -> float:
    """The retrodiction game played branch by branch, each of the 24
    branches inferring the outcome afresh: the reference for
    apps.mean_king_simulate, which reads one overlap table per observable."""
    initial = np.asarray(bell_stabilizer(bell_field(), "phi_plus").state())
    success = 0.0
    for observable in ("x", "y", "z"):
        for idx, line in enumerate(king_lines(net.field, observable), start=1):
            ls = line_state(net, line)
            p_line = abs(np.vdot(ls, initial)) ** 2
            if p_line < IDENTITY_ATOL:
                continue
            for result, phi in enumerate(basis):
                p_result = abs(np.vdot(phi, ls)) ** 2
                if p_result < IDENTITY_ATOL:
                    continue
                if infer_king_outcome_per_branch(net, basis, result, observable) == idx:
                    success += p_line * p_result / 3
    return success
