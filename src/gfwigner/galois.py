"""Exact arithmetic in GF(2^n) via primitive polynomials and companion matrices.

Field elements are plain Python ints used as n-bit coefficient vectors in the
canonical basis {1, w, ..., w^(n-1)}: bit i of the int is the coefficient of
w^i.  Addition is XOR; multiplication is polynomial multiplication modulo the
primitive polynomial, served from precomputed log/antilog tables.

Binary strings are printed with bit 0 first, so the string "100" is the field
element 1 and "010" is w.
"""

from __future__ import annotations

from functools import cached_property

from .errors import DegreeMismatch, NonPrimitivePolynomial, SingularBasis

# Default primitive polynomials, one per degree, stored with bit j = coefficient
# of x^j.  n = 2, 3, 4 are pinned to x^2+x+1, x^3+x^2+1 and x^4+x+1 so that the
# power orderings are bit-exact against the reference tables; the rest come
# from Stahnke's standard table.
PRIMITIVE_POLYS = {
    1: 0b11,               # x + 1
    2: 0b111,              # x^2 + x + 1
    3: 0b1101,             # x^3 + x^2 + 1
    4: 0b10011,            # x^4 + x + 1
    5: 0b100101,           # x^5 + x^2 + 1
    6: 0b1000011,          # x^6 + x + 1
    7: 0b10000011,         # x^7 + x + 1
    8: 0b100011101,        # x^8 + x^4 + x^3 + x^2 + 1
    9: 0b1000010001,       # x^9 + x^4 + 1
    10: 0b10000001001,     # x^10 + x^3 + 1
    11: 0b100000000101,    # x^11 + x^2 + 1
    12: 0b1000001010011,   # x^12 + x^6 + x^4 + x + 1
    13: 0b10000000011011,  # x^13 + x^4 + x^3 + x + 1
    14: 0b100010001000011,  # x^14 + x^10 + x^6 + x + 1
    15: 0b1000000000000011,  # x^15 + x + 1
    16: 0b10001000000001011,  # x^16 + x^12 + x^3 + x + 1
}


def default_poly(n: int) -> int:
    if n not in PRIMITIVE_POLYS:
        raise DegreeMismatch(f"no default primitive polynomial for n={n}")
    return PRIMITIVE_POLYS[n]


class GF2Field:
    """The field GF(2^n) for a given primitive polynomial.

    Parameters
    ----------
    n : int
        Extension degree (number of qubits), 1 <= n <= 16.
    poly : int, optional
        Primitive polynomial with bit j = coefficient of x^j.  Must have
        degree exactly n and constant term 1.  Defaults to the built-in
        table.  Primitivity is verified at construction by checking that
        x generates the full cyclic group of order 2^n - 1.
    """

    def __init__(self, n: int, poly: int | None = None):
        if not 1 <= n <= 16:
            raise DegreeMismatch(f"n must be in [1, 16], got {n}")
        if poly is None:
            poly = default_poly(n)
        if poly.bit_length() != n + 1:
            raise DegreeMismatch(
                f"polynomial must have degree exactly {n} (bit length {n + 1})"
            )
        if not poly & 1:
            raise NonPrimitivePolynomial("constant term of pi(x) must be 1")
        self.n = n
        self.poly = poly
        self.N = 1 << n
        self.order = self.N - 1  # size of the multiplicative group

        # exp[j] = w^j as a bit vector; log[x] = j with w^j = x.
        exp = [0] * self.order
        log = [0] * self.N
        x = 1
        for j in range(self.order):
            if x == 1 and j > 0:
                raise NonPrimitivePolynomial(
                    f"x has multiplicative order {j} < {self.order}"
                )
            exp[j] = x
            log[x] = j
            x = self._mul_by_x(x)
        if x != 1:
            raise NonPrimitivePolynomial("x^(2^n - 1) != 1; pi(x) is not primitive")
        self._exp = exp
        self._log = log
        self._trace = [self._trace_slow(v) for v in range(self.N)]

    def _mul_by_x(self, a: int) -> int:
        a <<= 1
        if a >> self.n & 1:
            a ^= self.poly
        return a & (self.N - 1)

    # -- basic arithmetic ---------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self.order]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self._exp[(self.order - self._log[a]) % self.order]

    def pow_omega(self, j: int) -> int:
        """w^j as a bit vector."""
        return self._exp[j % self.order]

    def log(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("log of zero")
        return self._log[a]

    def _trace_slow(self, a: int) -> int:
        t, acc = a, a
        for _ in range(self.n - 1):
            t = self.mul(t, t)
            acc ^= t
        if acc not in (0, 1):
            raise NonPrimitivePolynomial("trace fell outside GF(2)")
        return acc

    def trace(self, a: int) -> int:
        """tr(a) = a + a^2 + ... + a^(2^(n-1)), valued in {0, 1}."""
        return self._trace[a]

    # -- companion matrix ---------------------------------------------------

    @cached_property
    def companion_rows(self) -> tuple[int, ...]:
        """Rows of the companion matrix M as bit masks (bit j = column j)."""
        rows = [1 << (i + 1) for i in range(self.n - 1)]
        rows.append(self.poly & (self.N - 1))
        return tuple(rows)

    @staticmethod
    def _row_times(a: int, rows: tuple[int, ...]) -> int:
        out = 0
        for i, row in enumerate(rows):
            if a >> i & 1:
                out ^= row
        return out

    def apply_m(self, a: int) -> int:
        """Row-vector action a' = a M (multiplication by w on coordinates)."""
        return self._row_times(a, self.companion_rows)

    def apply_mt(self, a: int) -> int:
        """Row-vector action a' = a M~ with M~ the transpose of M."""
        return self._row_times(a, self._mt_cols)

    @cached_property
    def _mt_cols(self) -> tuple[int, ...]:
        rows = self.companion_rows
        cols = []
        for i in range(self.n):
            col = 0
            for j in range(self.n):
                col |= (rows[j] >> i & 1) << j
            cols.append(col)
        return tuple(cols)

    @cached_property
    def _mt_inv_table(self) -> tuple[int, ...]:
        table = [0] * self.N
        for a in range(self.N):
            table[self.apply_mt(a)] = a
        return tuple(table)

    def apply_mt_inv(self, a: int) -> int:
        """Row-vector action a' = a M~^-1."""
        return self._mt_inv_table[a]

    @cached_property
    def _m_inv_table(self) -> tuple[int, ...]:
        table = [0] * self.N
        for a in range(self.N):
            table[self.apply_m(a)] = a
        return tuple(table)

    def apply_m_inv(self, a: int) -> int:
        """Row-vector action a' = a M^-1."""
        return self._m_inv_table[a]

    # -- momentum-axis coordinate map --------------------------------------

    @cached_property
    def _p2b(self) -> tuple[int, ...]:
        """Field element -> momentum bit string.

        The momentum axis is expanded in the basis f_i = ebar_i / ebar_0
        (the dual of the canonical basis rescaled so that f_0 = 1), which is
        the unique scaling for which the string assigned to w^j is the dual
        power ordering 1·M~^j.
        """
        table = [0] * self.N
        bits = 1
        for j in range(self.order):
            table[self._exp[j]] = bits
            bits = self.apply_mt(bits)
        return tuple(table)

    def p_to_bits(self, p: int) -> int:
        return self._p2b[p]

    @cached_property
    def _b2p(self) -> tuple[int, ...]:
        table = [0] * self.N
        for p, bits in enumerate(self._p2b):
            table[bits] = p
        return table

    def bits_to_p(self, bits: int) -> int:
        return self._b2p[bits]

    @cached_property
    def dual_scale(self) -> int:
        """The element ebar_0 with f_i = ebar_i / ebar_0; its inverse is the
        field factor appearing in the trace form of the phase-space wedge."""
        return dual_basis(self, [self.pow_omega(i) for i in range(self.n)])[0]

    # -- misc ---------------------------------------------------------------

    def bits_str(self, a: int) -> str:
        """Render a bit vector with bit 0 (coefficient of w^0) first."""
        return "".join(str(a >> i & 1) for i in range(self.n))

    def parse_bits(self, s: str) -> int:
        if len(s) != self.n or set(s) - {"0", "1"}:
            raise DegreeMismatch(f"expected {self.n} binary digits, got {s!r}")
        return int(s[::-1], 2)

    def elements(self):
        return range(self.N)

    def __eq__(self, other):
        return (
            isinstance(other, GF2Field)
            and self.n == other.n
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.n, self.poly))

    def __repr__(self):
        terms = [f"x^{j}" if j > 1 else ("x" if j == 1 else "1")
                 for j in range(self.n, -1, -1) if self.poly >> j & 1]
        return f"GF2Field(n={self.n}, poly={' + '.join(terms)})"


def field_new(n: int, poly: int | None = None) -> GF2Field:
    """Construct a validated GF(2^n) with precomputed log/antilog tables."""
    return GF2Field(n, poly)


def _solve_gf2(rows: list[int], rhs: list[int], n: int) -> int:
    """Solve the GF(2) system given by row bit masks; returns the solution mask.

    Raises SingularBasis when the matrix is singular.
    """
    aug = [rows[i] | (rhs[i] << n) for i in range(n)]
    pivot_row_for_col = {}
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, n) if aug[i] >> col & 1), None)
        if pivot is None:
            raise SingularBasis("matrix is singular over GF(2)")
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


def dual_basis(field: GF2Field, basis: list[int]) -> list[int]:
    """The unique basis ebar with tr(ebar_i e_j) = delta_ij."""
    n = field.n
    if len(basis) != n:
        raise SingularBasis(f"need {n} elements, got {len(basis)}")
    # Row j, column k: tr(w^k e_j).
    rows = []
    for e in basis:
        mask = 0
        for k in range(n):
            mask |= field.trace(field.mul(field.pow_omega(k), e)) << k
        rows.append(mask)
    out = []
    for i in range(n):
        rhs = [1 if j == i else 0 for j in range(n)]
        out.append(_solve_gf2(list(rows), rhs, n))
    return out


def power_ordering(field: GF2Field, generator: str = "canonical") -> list[int]:
    """The zero string, then the cyclic ordering 1, 1·M, 1·M^2, ... of all
    nonzero strings (the axis labelling).

    generator is "canonical" for the companion matrix M or "dual" for its
    transpose.
    """
    if generator not in ("canonical", "dual"):
        raise ValueError(f"generator must be 'canonical' or 'dual', got {generator!r}")
    step = field.apply_m if generator == "canonical" else field.apply_mt
    out = [0]
    a = 1
    for _ in range(field.order):
        out.append(a)
        a = step(a)
    return out
