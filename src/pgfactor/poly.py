"""Exact integer-coefficient polynomials in a single indeterminate p.

Everything here is immutable and uses Python's arbitrary-precision ints,
so squared subgroup counts never overflow no matter the exponents.  A
product with a single-term operand c*p^d scales the other operand's
coefficients by c and shifts them by d; every other product is packed into
one big-int product, so it costs about as much as CPython's multiplication
of the packed ints.  ``pack`` writes coefficients into the balanced
base-2^(8*width) digits of one int, the polynomial's value at p = 2^(8*width),
and ``from_packed``, its inverse, reads a polynomial back off those digits.
The packed product uses both; symbolic theorem3 reads F2 with
``from_packed`` off a sum it takes on ints at p = 2^(8*width), so it packs
nothing.  The one division, ``exact_div``, accepts only the divisors
p^k - 1 and is a running sum in each residue class mod k.  Only the public
constructor checks for integer coefficients; arithmetic results are built by
``_poly``, which only trims.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add, index
from typing import Iterable


class InexactDivision(ArithmeticError):
    """Polynomial division left a nonzero remainder where none was expected."""


def _bias_sum(n: int, width: int) -> int:
    """The bias 2^(8*width-1), once in each of n slots of ``width`` bytes."""
    return int.from_bytes(((1 << (8 * width - 1)).to_bytes(width, "little")) * n, "little")


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...]) -> "IntPolynomial":
    """a*b from one big-int product (Kronecker substitution).

    Each operand is evaluated at 2^(8*width), where every product coefficient
    is below max|a| * max|b| * min(len a, len b) < 2^(8*width-1) in size.
    Adding the bias 2^(8*width-1) to every slot makes all slots nonnegative,
    so packing and unpacking are linear byte conversions; see D. Harvey,
    "Faster polynomial multiplication via multipoint Kronecker substitution",
    J. Symbolic Comput. 44 (2009).
    """
    max_a = max(map(abs, a))
    max_b = max_a if b is a else max(map(abs, b))
    width = (max_a * max_b * min(len(a), len(b))).bit_length() // 8 + 1
    x = pack(a, width)
    product = x * x if b is a else x * pack(b, width)
    return from_packed(product, width)


def _poly(coeffs: list[int]) -> "IntPolynomial":
    """An IntPolynomial from int coefficients: trailing zeros trimmed, nothing coerced."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    poly = object.__new__(IntPolynomial)
    object.__setattr__(poly, "coeffs", tuple(coeffs))
    return poly


class IntPolynomial:
    """Dense polynomial over the integers; coeffs[i] is the coefficient of p^i.

    The zero polynomial stores an empty coefficient tuple, every other value
    keeps a nonzero leading coefficient.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __new__(cls, coeffs: Iterable[int] = ()):
        return _poly([index(c) for c in coeffs])

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return IntPolynomial, (self.coeffs,)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(sum(self.coeffs))

    @staticmethod
    def _coerce(value) -> "IntPolynomial | None":
        if isinstance(value, IntPolynomial):
            return value
        if isinstance(value, int):
            return _poly([value])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _poly([*map(add, a, b), *a[len(b):]])

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly([])
        if any(a[:-1]):  # put a single-term operand, if there is one, first
            a, b = b, a
        if any(a[:-1]):
            return _kronecker_product(a, b)
        # a is c p^d: scale b by c and shift it by d
        return _poly([0] * (len(a) - 1) + [a[-1] * c for c in b])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        a = self.coeffs
        if a and not any(a[:-1]):  # a single term c p^d: c^n p^(dn)
            return _poly([0] * ((len(a) - 1) * n) + [a[-1] ** n])
        result = _poly([1])
        base = self
        while True:
            if n & 1:
                result = result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def evaluate(self, x: int) -> int:
        """Exact evaluation at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, den: "IntPolynomial") -> "IntPolynomial":
        """Divide by ``den`` = p^k - 1 (k >= 1), requiring a zero remainder.

        Read from the top, the running sums in each residue class mod k are
        the quotient, except the last k sums, which are the remainder.
        Raises InexactDivision on a nonzero remainder: exact divisibility is
        a correctness property of the closed forms built on top of this, so
        failure here means a formula bug, not bad input.  Raises ValueError
        if ``den`` is not p^k - 1.
        """
        d = den.coeffs if isinstance(den, IntPolynomial) else ()
        k = len(d) - 1
        if d != (-1, *[0] * (k - 1), 1):
            raise ValueError(f"can only divide by p^k - 1, not {den!r}")
        n = len(self.coeffs)
        sums = list(reversed(self.coeffs))
        for r in range(k):
            sums[r::k] = accumulate(sums[r::k])
        if any(sums[max(n - k, 0):]):
            raise InexactDivision(f"{self!r} is not divisible by {den}")
        return _poly(sums[n - k - 1::-1])

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"


#: The indeterminate itself, for building formulas by plain arithmetic.
P = IntPolynomial((0, 1))


def pack(coeffs: tuple[int, ...], width: int) -> int:
    """The value at p = 2^(8*width) of the polynomial with these coefficients.

    The inverse of ``from_packed`` when every coefficient is below
    2^(8*width-1) in size: each is biased into its ``width``-byte slot, the
    slots are read as one int, and the biases are taken off again.
    """
    bias = 1 << (8 * width - 1)
    data = b"".join((c + bias).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(data, "little") - _bias_sum(len(coeffs), width)


def from_packed(value: int, width: int) -> IntPolynomial:
    """The polynomial f with f(2^(8*width)) = ``value``, read off its digits.

    Exact when every coefficient of f is below 2^(8*width-1) in size.  Then
    a nonzero leading coefficient at p^(n-1) puts |value| in
    (2^(8*width*(n-1)-1), 2^(8*width*n-1)), so the bit length of ``value``
    gives the number of digits n.  With the bias added to every slot, one
    byte conversion reads them all, and the bias is taken off each again.
    """
    n = abs(value).bit_length() // (8 * width) + 1
    data = (value + _bias_sum(n, width)).to_bytes(n * width, "little")
    bias = 1 << (8 * width - 1)
    return _poly([int.from_bytes(data[i:i + width], "little") - bias for i in range(0, n * width, width)])


def render(poly: IntPolynomial) -> str:
    """Canonical text form: descending powers, no spaces, '^' exponents.

    Examples: ``9p^6+15p^5+2p+13``, ``p+3``, ``-2p^2-2``, ``0``.
    """
    if not poly:
        return "0"
    parts = []
    for k in range(len(poly.coeffs) - 1, -1, -1):
        c = poly.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "p" if k == 1 else f"p^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        parts.append(sign + body)
    return "".join(parts)
