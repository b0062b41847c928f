"""Truncated formal power series over exact rationals or rational matrices.

Two groups live here: series with invertible constant term under the
pointwise (Cauchy) product, and series with zero constant term and
invertible linear term under substitution.  Substitution acts on the first
group from the right, and a 1-cocycle of the substitution group glues the
two into the twisted action used by the charge renormalization.

A coefficient is a ``Fraction`` or a square ``Matrix``.  A matrix keeps
integer numerators over one common positive denominator in lowest terms, so
its sums and products are integer arithmetic with one ``gcd`` per result;
``Matrix.rows`` gives the entries as ``Fraction``s.  Floats are refused with
``TypeError``, as in ``algebra``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence, Union


def _fraction(x) -> Fraction:
    """Exact rational value of a scalar.  Floats are refused, by the rule of
    ``algebra._coeff``: their binary value is not the decimal the caller
    wrote."""
    if isinstance(x, float):
        raise TypeError(f"ring values must be exact (int, Fraction or str), not {x!r}")
    return Fraction(x)


class Matrix:
    """Dense matrix with exact rational entries, stored as integer
    numerators over one common positive denominator in lowest terms:
    ``den > 0`` and ``gcd(den, *num) == 1``.  The stored form is canonical,
    so equal matrices have equal ``(num, den)``."""

    __slots__ = ("num", "den")

    num: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, rows: Sequence[Sequence]):
        """``Matrix(rows)`` is ``Matrix.from_rows(rows)``, so that a
        ``repr`` evaluates back to an equal matrix."""
        m = Matrix.from_rows(rows)
        object.__setattr__(self, "num", m.num)
        object.__setattr__(self, "den", m.den)

    @classmethod
    def _new(cls, num: tuple[tuple[int, ...], ...], den: int) -> "Matrix":
        """Trusted constructor for a form already in lowest terms."""
        m = object.__new__(cls)
        object.__setattr__(m, "num", num)
        object.__setattr__(m, "den", den)
        return m

    @classmethod
    def _lowest(cls, num: tuple[tuple[int, ...], ...], den: int) -> "Matrix":
        """Integer numerators over a positive denominator, divided by their
        one common factor."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = tuple(tuple(x // g for x in r) for r in num)
                den //= g
        return cls._new(num, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"Matrix is immutable; cannot set {name!r}")

    def __reduce__(self):
        return (Matrix._new, (self.num, self.den))

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        entries = [[_fraction(x) for x in r] for r in rows]
        if len({len(r) for r in entries}) > 1:
            raise ValueError("matrix rows must have equal lengths")
        den = lcm(*(x.denominator for r in entries for x in r))
        return Matrix._lowest(
            tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in entries),
            den,
        )

    @staticmethod
    def identity(d: int) -> "Matrix":
        return Matrix._new(
            tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)), 1
        )

    @staticmethod
    def zeros(d: int) -> "Matrix":
        return Matrix._new(tuple((0,) * d for _ in range(d)), 1)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as ``Fraction``s, row by row."""
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in r) for r in self.num)

    @property
    def dim(self) -> int:
        return len(self.num)

    @property
    def shape(self) -> tuple[int, int]:
        num = self.num
        return len(num), len(num[0]) if num else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"cannot add a {self.shape} and a {other.shape} matrix")
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = tuple(
            tuple(a * ma + b * mb for a, b in zip(ra, rb))
            for ra, rb in zip(self.num, other.num)
        )
        return Matrix._lowest(num, da * ma)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._new(tuple(tuple(-a for a in r) for r in self.num), self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.shape[1] != other.dim:
            raise ValueError(f"cannot multiply a {self.shape} by a {other.shape} matrix")
        cols = list(zip(*other.num))
        num = tuple(
            tuple(sum(map(mul, row, col)) for col in cols) for row in self.num
        )
        return Matrix._lowest(num, self.den * other.den)

    def scale(self, k) -> "Matrix":
        if type(k) is not int and type(k) is not Fraction:
            k = _fraction(k)
        kn = k.numerator
        num = tuple(tuple(kn * a for a in r) for r in self.num)
        return Matrix._lowest(num, self.den * k.denominator)

    def is_zero(self) -> bool:
        return not any(chain.from_iterable(self.num))

    def inverse(self) -> "Matrix":
        """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
        d = self.dim
        aug = [
            list(row) + [Fraction(1 if i == j else 0) for j in range(d)]
            for i, row in enumerate(self.rows)
        ]
        for col in range(d):
            pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
            if pivot is None:
                raise ValueError("singular matrix")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = Fraction(1) / aug[col][col]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(d):
                if r != col and aug[r][col]:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return Matrix.from_rows([row[d:] for row in aug])


RingValue = Union[Fraction, Matrix]


def r_add(a: RingValue, b: RingValue) -> RingValue:
    """Sum in the ring; a scalar added to a matrix stands for that multiple
    of the identity, so a scalar 0 leaves the matrix as it is."""
    if isinstance(a, Matrix):
        if not isinstance(b, Matrix):
            b = _fraction(b)
            if b == 0:
                return a
            b = Matrix.identity(a.dim).scale(b)
    elif isinstance(b, Matrix):
        a = _fraction(a)
        if a == 0:
            return b
        a = Matrix.identity(b.dim).scale(a)
    return a + b


def r_mul(a: RingValue, b: RingValue) -> RingValue:
    if isinstance(a, Matrix):
        return a @ b if isinstance(b, Matrix) else a.scale(b)
    if isinstance(b, Matrix):
        return b.scale(a)
    return a * b


def r_is_zero(a: RingValue) -> bool:
    return a.is_zero() if isinstance(a, Matrix) else a == 0


def r_eq(a: RingValue, b: RingValue) -> bool:
    """Equality in the ring, a scalar c standing for c times the identity;
    matrices of different shapes are unequal."""
    if isinstance(a, Matrix) == isinstance(b, Matrix):
        return a == b
    m, c = (a, b) if isinstance(a, Matrix) else (b, a)
    return r_is_central(m) and _scalar(m) == c


def r_is_central(a: RingValue) -> bool:
    """Whether a commutes with every ring value: a scalar, or a square
    matrix equal to c times the identity."""
    if not isinstance(a, Matrix):
        return True
    num = a.num
    return bool(num) and len(num) == len(num[0]) and all(
        x == (num[0][0] if i == j else 0)
        for i, row in enumerate(num)
        for j, x in enumerate(row)
    )


def _scalar(m: Matrix) -> Fraction:
    """The c of a central matrix c·I."""
    return Fraction(m.num[0][0], m.den)


def r_inv(a: RingValue) -> RingValue:
    if isinstance(a, Matrix):
        return a.inverse()
    if a == 0:
        raise ValueError("zero is not invertible")
    return Fraction(1) / a


def r_one_like(a: RingValue) -> RingValue:
    return Matrix.identity(a.dim) if isinstance(a, Matrix) else Fraction(1)


def r_zero_like(a: RingValue) -> RingValue:
    return Matrix.zeros(a.dim) if isinstance(a, Matrix) else Fraction(0)


class Series:
    """Power series truncated at a fixed order; arithmetic discards higher
    terms and mixed-order operations truncate to the smaller order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RingValue]):
        if not coeffs:
            raise ValueError("a truncated series needs at least a constant term")
        self.coeffs = tuple(
            c if isinstance(c, Matrix) else _fraction(c) for c in coeffs
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> RingValue:
        return self.coeffs[n]

    def truncate(self, n: int) -> "Series":
        return Series(self.coeffs[: n + 1])

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series([r_add(self[k], other[k]) for k in range(n + 1)])

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        """Cauchy product; coefficient order is preserved (left factor first)."""
        n = min(self.order, other.order)
        out = []
        for k in range(n + 1):
            acc: RingValue = Fraction(0)
            for i in range(k + 1):
                acc = r_add(acc, r_mul(self[i], other[k - i]))
            out.append(acc)
        return Series(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            return False
        return all(r_eq(a, b) for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        # Consistent with __eq__: a central matrix c·I hashes as the scalar c.
        return hash(tuple(
            _scalar(c) if isinstance(c, Matrix) and r_is_central(c) else c
            for c in self.coeffs
        ))

    def compose(self, inner: "Series") -> "Series":
        """Substitution self(inner); the inner series must have zero constant
        term so the truncation is well defined."""
        if not r_is_zero(inner[0]):
            raise ValueError("substituted series must have zero constant term")
        n = min(self.order, inner.order)
        out = [self[0]] + [r_zero_like(self[0])] * n
        power = Series([r_one_like(inner[0])] + [r_zero_like(inner[0])] * n)
        for k in range(1, n + 1):
            power = (power * inner).truncate(n)
            for m in range(n + 1):
                out[m] = r_add(out[m], r_mul(self[k], power[m]))
        return Series(out)

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        c0inv = r_inv(self[0])
        out = [c0inv]
        for k in range(1, self.order + 1):
            acc: RingValue = Fraction(0)
            for i in range(1, k + 1):
                acc = r_add(acc, r_mul(self[i], out[k - i]))
            out.append(-r_mul(c0inv, acc))
        return Series(out)

    def shift_down(self) -> "Series":
        """Divide by the indeterminate (drop the constant term, which must
        vanish); the result is one order shorter."""
        if not r_is_zero(self[0]):
            raise ValueError("cannot divide by the indeterminate: nonzero constant term")
        return Series(self.coeffs[1:])

    def is_gp(self) -> bool:
        try:
            r_inv(self[0])
        except ValueError:
            return False
        return True

    def is_gc(self) -> bool:
        if self.order < 1 or not r_is_zero(self[0]):
            return False
        try:
            r_inv(self[1])
        except ValueError:
            return False
        return True

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r})"


def one(n: int) -> Series:
    return Series([Fraction(1)] + [Fraction(0)] * n)


def indeterminate(n: int) -> Series:
    if n < 1:
        raise ValueError("need order >= 1")
    return Series([Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 1))


def gp(coeffs: Sequence[RingValue]) -> Series:
    s = Series(coeffs)
    if not s.is_gp():
        raise ValueError("constant term is not invertible")
    return s


def gc(coeffs: Sequence[RingValue]) -> Series:
    s = Series(coeffs)
    if not s.is_gc():
        raise ValueError("need zero constant term and invertible linear term")
    return s


def gc_compose(phi: Series, psi: Series) -> Series:
    """Group law of the substitution group: (phi psi)(x) = phi(psi(x)), so
    that acting with the product equals acting twice in order."""
    return phi.compose(psi)


def gp_action(f: Series, phi: Series) -> Series:
    """Right action of the substitution group: substitute phi into f."""
    if not phi.is_gc():
        raise ValueError("action needs a substitution-group element")
    return f.compose(phi)


def semidirect_multiply(
    pair_a: tuple[Series, Series], pair_b: tuple[Series, Series]
) -> tuple[Series, Series]:
    """(phi, f) . (psi, g) = (phi o psi, f^psi g)."""
    phi, f = pair_a
    psi, g = pair_b
    return gc_compose(phi, psi), gp_action(f, psi) * g


Cocycle = Callable[[Series], Series]


def divide_by_alpha(phi: Series) -> Series:
    """The standard cocycle: identify a substitution-group element with a
    product-group element by dividing by the indeterminate."""
    return phi.shift_down()


def cocycle_check(s: Cocycle, phi: Series, psi: Series) -> bool:
    """Whether s(psi) s(phi psi)^-1 (s(phi)^psi) is the unit series, up to
    the common truncation order."""
    lhs = s(psi) * s(gc_compose(phi, psi)).inverse() * gp_action(s(phi), psi)
    return lhs == one(lhs.order)


def sigma_action(f: Series, phi: Series, s: Cocycle) -> Series:
    """Twisted right action f . phi = f^phi s(phi)."""
    return gp_action(f, phi) * s(phi)
