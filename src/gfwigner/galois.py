"""Exact arithmetic in GF(2^n) via primitive polynomials, and the package's
GF(2) linear algebra.

Field elements are plain Python ints used as n-bit coefficient vectors in the
canonical basis {1, w, ..., w^(n-1)}: bit i of the int is the coefficient of
w^i.  Addition is XOR; multiplication is polynomial multiplication modulo the
primitive polynomial, served from precomputed log/antilog tables.

Following Gibbons, Hoffman and Wootters, the q axis uses the canonical basis,
on which multiplication by w is the companion matrix M, and the p axis the
rescaled dual basis, on which it is M~, the transpose of M.  On row vectors
the three maps the package uses are shifts: a M shifts a up and folds the
overflow back in with the polynomial, b M~ shifts b down with the parity of
b & poly as its new top bit, and b M~^-1 shifts up with the same parity as
its new low bit.  The trace is a linear form: tr(a) is the parity of a & mask,
bit i of the mask being tr(w^i).  solve_gf2 is the one Gaussian elimination,
for dual bases.
u_omega_gates is the qubit circuit of U_w, which realizes a -> a M on
computational basis labels.

Binary strings are printed with bit 0 first, so the string "100" is the field
element 1 and "010" is w; a polynomial prints the same way, with n + 1 digits.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (DegreeMismatch, MalformedInput, NonPrimitivePolynomial, SingularBasis,
                     need_text)

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


class GF2Field:
    """The field GF(2^n) for a given primitive polynomial.

    Parameters
    ----------
    n : int
        Extension degree (number of qubits): an int, not a bool, 1 <= n <= 16.
    poly : int, optional
        Primitive polynomial with bit j = coefficient of x^j: an int, not a
        bool (parse_poly reads the string form).  Must have
        degree exactly n and constant term 1.  Defaults to the built-in
        table.  Primitivity is verified at construction by checking that
        x generates the full cyclic group of order 2^n - 1.
    """

    def __init__(self, n: int, poly: int | None = None):
        if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= 16:
            raise DegreeMismatch(f"n must be an integer in [1, 16], got {n!r}")
        if poly is None:
            poly = PRIMITIVE_POLYS[n]
        elif isinstance(poly, bool) or not isinstance(poly, int):
            raise MalformedInput(f"polynomial must be an int bit mask (bit j = coefficient "
                                 f"of x^j), got {poly!r}; parse_poly reads the string form")
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
            x = self.apply_m(x)
        if x != 1:
            raise NonPrimitivePolynomial("x^(2^n - 1) != 1; pi(x) is not primitive")
        self._exp = exp
        self._log = log
        # bit i of the trace mask is tr(w^i) = sum_k w^(i 2^k)
        self._trace_mask = 0
        for i in range(n):
            t = 0
            for k in range(n):
                t ^= exp[(i << k) % self.order]
            if t not in (0, 1):
                raise NonPrimitivePolynomial("trace fell outside GF(2)")
            self._trace_mask |= t << i

    # -- basic arithmetic ---------------------------------------------------

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

    def trace(self, a: int) -> int:
        """tr(a) = a + a^2 + ... + a^(2^(n-1)), valued in {0, 1}."""
        return (a & self._trace_mask).bit_count() & 1

    # -- companion matrix M and its transpose M~, as shifts ------------------

    def apply_m(self, a: int) -> int:
        """Row-vector action a' = a M (multiplication by w on coordinates)."""
        a <<= 1
        return a ^ self.poly if a >> self.n else a

    def apply_mt(self, b: int) -> int:
        """Row-vector action b' = b M~ with M~ the transpose of M."""
        return b >> 1 | ((b & self.poly).bit_count() & 1) << (self.n - 1)

    def apply_mt_inv(self, b: int) -> int:
        """Row-vector action b' = b M~^-1."""
        b <<= 1
        return (b & (self.N - 1)) | ((b & self.poly).bit_count() & 1)

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

    # -- misc ---------------------------------------------------------------

    def poly_str(self) -> str:
        """The polynomial's n + 1 coefficient bits, x^0 first (parse_poly's
        input format)."""
        return f"{self.poly:b}"[::-1]

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


def u_omega_gates(field: GF2Field) -> list[tuple[str, int, int]]:
    """Gate list for U_w in application order (first gate acts first).

    The circuit realizes the classical map bits -> bits . M (field.apply_m)
    on computational basis labels: a cyclic shift of the qubits followed by
    CNOTs from qubit 0 controlled by the polynomial coefficients.
    """
    n = field.n
    gates = [("swap", 0, j) for j in range(1, n)]
    gates += [("cnot", 0, j) for j in range(1, n) if field.poly >> j & 1]
    return gates


def parse_poly(text, what: str = "polynomial") -> int:
    """Polynomial bits from a string of 0s and 1s, x^0 first, as poly_str
    prints them; degree and primitivity are left to field_new.  what names
    the input in the MalformedInput message."""
    if not (isinstance(text, str) and text) or set(text) - {"0", "1"}:
        raise MalformedInput(f"{what} {text!r} is not a string of 0s and 1s")
    return int(text[::-1], 2)


def load_json(text: str, what: str):
    """The JSON document text, else (nested past the recursion limit, or not a
    str, too) MalformedInput."""
    import json

    try:
        return json.loads(need_text(text, what))
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"{what} cannot be read as JSON: {exc}") from None


def read_field_header(text: str, what: str, **members: type) -> tuple[GF2Field, dict]:
    """The field and the JSON object of a net or grid file, which needs an
    int "n", a "poly" bit string (parse_poly) and each of members, a key
    mapped to its value's type; else a GfwignerError names what."""
    payload = load_json(text, what)
    members = {"n": int, "poly": str, **members}
    if not (isinstance(payload, dict) and all(
            isinstance(payload.get(key), kind) for key, kind in members.items())):
        raise MalformedInput(f"{what} needs an object with the members " + ", ".join(
            f'"{key}" ({kind.__name__})' for key, kind in members.items()))
    return field_new(payload["n"], parse_poly(payload["poly"], f'{what} "poly"')), payload


def solve_gf2(columns: list[int], target: int) -> int:
    """The mask x with the xor of columns[k] over the set bits k of x equal to
    target; columns and target are GF(2) vectors as bit masks.  Raises
    SingularBasis when target is outside the span of the columns."""
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
            raise SingularBasis("target not in the span of the columns")
        target ^= basis[low][0]
        sol ^= basis[low][1]
    return sol


def dual_basis(field: GF2Field, basis: list[int]) -> list[int]:
    """The unique basis ebar with tr(ebar_i e_j) = delta_ij."""
    n = field.n
    if len(basis) != n:
        raise SingularBasis(f"need {n} elements, got {len(basis)}")
    # ebar_i = sum_k x_k w^k with sum_k x_k tr(w^k e_j) = delta_ij: column k
    # holds tr(w^k e_j) at bit j
    columns = [sum(field.trace(field.mul(field.pow_omega(k), e)) << j
                   for j, e in enumerate(basis)) for k in range(n)]
    return [solve_gf2(columns, 1 << i) for i in range(n)]


def power_ordering(field: GF2Field, generator: str = "canonical") -> list[int]:
    """The zero string, then the cyclic ordering 1, 1·M, 1·M^2, ... of all
    nonzero strings (the axis labelling).

    generator is "canonical" for the companion matrix M (the powers w^j) or
    "dual" for its transpose (their momentum strings 1·M~^j, p_to_bits).
    """
    if generator not in ("canonical", "dual"):
        raise MalformedInput(f"generator must be 'canonical' or 'dual', got {generator!r}")
    axis = [0, *field._exp]
    return axis if generator == "canonical" else list(map(field.p_to_bits, axis))
