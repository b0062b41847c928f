"""Truncated formal power series over exact rationals or rational matrices.

Two groups live here: series with invertible constant term under the
pointwise (Cauchy) product, and series with zero constant term and
invertible linear term under substitution.  Substitution acts on the first
group from the right, and a 1-cocycle of the substitution group glues the
two into the twisted action used by the charge renormalization.

A coefficient is a ``Fraction`` or a square ``Matrix`` (``ring_value``;
floats are refused with ``TypeError``, as in ``algebra``), and ``ring_sum``
is the ring's one sum.  A matrix is a frozen dataclass of integer numerators
over one common positive denominator in lowest terms, so its sums and
products are integer arithmetic with one ``gcd`` per result; ``Matrix.rows``
gives the entries as ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence, Union


def _fraction(x) -> Fraction:
    """Exact rational value of a scalar.  Floats are refused, by the rule of
    ``algebra._coeff``: their binary value is not the decimal the caller
    wrote."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"ring values must be exact (int, Fraction or str), not {x!r}")
    return Fraction(x)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Matrix:
    """Dense matrix with exact rational entries, stored as integer
    numerators over one common positive denominator in lowest terms:
    ``den > 0`` and ``gcd(den, *num) == 1``.  The form is canonical, so
    ``==`` and ``hash`` compare ``(num, den)``."""

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
        """Gauss-Jordan inverse; raises ValueError on a singular or a
        non-square matrix."""
        d = self.dim
        if self.shape != (d, d):
            raise ValueError(f"cannot invert a {self.shape} matrix")
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


def ring_value(x) -> RingValue:
    """A matrix as it is, or the exact rational value of a scalar."""
    return x if isinstance(x, Matrix) else _fraction(x)


_END = object()


def ring_sum(values: Iterable[RingValue]) -> RingValue:
    """The sum of ints, ``Fraction``s and matrices, a scalar standing for
    that multiple of the identity, with the value and type of the pairwise
    ``r_add`` fold: the empty sum is ``Fraction(0)``, a one-value sum is that
    value, an all-``int`` sum is an ``int`` and a sum with a matrix is a
    matrix.  The scalars are folded as one integer numerator and the
    matrices as one list of integer numerators, each over a running common
    denominator and reduced once at the end.  Matrices of different shapes,
    or a non-square one that meets a nonzero scalar, raise ``ValueError``;
    any other summand raises ``TypeError``."""
    it = iter(values)
    first = next(it, _END)
    if first is _END:
        return Fraction(0)
    second = next(it, _END)
    if second is _END:
        return first
    sn, sd, ints = 0, 1, True  # the scalars so far: sn / sd
    mn = None  # the matrices so far, row by row: mn / md
    for v in chain((first, second), it):
        t = type(v)
        if t is Matrix:
            if mn is None:
                shape, mn, md = v.shape, list(chain.from_iterable(v.num)), v.den
                square = shape[0] == shape[1]
                if sn and not square:
                    raise ValueError(f"cannot add a scalar to a {shape} matrix")
                continue
            if v.shape != shape:
                raise ValueError(f"cannot add a {shape} and a {v.shape} matrix")
            b = v.den
            if md % b:
                g = gcd(md, b)
                f, h = b // g, md // g
                mn = [x * f + y * h for x, y in zip(mn, chain.from_iterable(v.num))]
                md *= f
            else:
                h = md // b
                mn = [x + y * h for x, y in zip(mn, chain.from_iterable(v.num))]
            continue
        if t is Fraction:
            ints = False
            a, b = v.numerator, v.denominator
        elif t is int or t is bool:
            a, b = v, 1
        else:
            raise TypeError(f"ring values must be exact (int, Fraction or Matrix), not {v!r}")
        if sd % b:
            g = gcd(sd, b)
            sn = sn * (b // g) + a * (sd // g)
            sd *= b // g
        else:
            sn += a * (sd // b)
        if a and mn is not None and not square:
            raise ValueError(f"cannot add a scalar to a {shape} matrix")
    if mn is None:
        return sn if ints else Fraction(sn, sd)
    if sn:
        den = lcm(md, sd)
        f = den // md
        mn = [x * f for x in mn]
        c, step = sn * (den // sd), shape[1] + 1
        for i in range(0, len(mn), step):
            mn[i] += c
        md = den
    rows, cols = shape
    return Matrix._lowest(tuple(tuple(mn[i * cols : (i + 1) * cols]) for i in range(rows)), md)


def r_add(a: RingValue, b: RingValue) -> RingValue:
    """Sum in the ring; a scalar added to a matrix stands for that multiple
    of the identity, so a scalar 0 leaves the matrix as it is.  A sum of two
    scalars that is not an ``int`` or ``Fraction`` is refused."""
    if isinstance(a, Matrix):
        if not isinstance(b, Matrix):
            b = _fraction(b)
            if b == 0:
                return a
            b = Matrix.identity(a.dim).scale(b)
        return a + b
    if isinstance(b, Matrix):
        a = _fraction(a)
        if a == 0:
            return b
        return Matrix.identity(b.dim).scale(a) + b
    s = a + b
    if type(s) is Fraction or type(s) is int:
        return s
    raise _inexact(a, "+", b, s)


def r_mul(a: RingValue, b: RingValue) -> RingValue:
    """Product in the ring, a scalar scaling a matrix; a product of two
    scalars that is not an ``int`` or ``Fraction`` is refused."""
    if isinstance(a, Matrix):
        return a @ b if isinstance(b, Matrix) else a.scale(b)
    if isinstance(b, Matrix):
        return b.scale(a)
    p = a * b
    if type(p) is Fraction or type(p) is int:
        return p
    raise _inexact(a, "*", b, p)


def _inexact(a, op: str, b, result) -> TypeError:
    """The refusal of a scalar ``a op b`` whose result is not exact."""
    return TypeError(
        f"ring values must be exact (int or Fraction), not {a!r} {op} {b!r} = {result!r}"
    )


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
        self.coeffs = tuple(map(ring_value, coeffs))

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
        return Series([ring_sum(r_mul(self[i], other[k - i]) for i in range(k + 1))
                       for k in range(n + 1)])

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
        """Substitution self(inner), through ``Substitution``; the inner
        series must have zero constant term so the truncation is well
        defined."""
        return Substitution(inner.truncate(min(self.order, inner.order)))(self)

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        c0inv = r_inv(self[0])
        out = [c0inv]
        for k in range(1, self.order + 1):
            acc = ring_sum(r_mul(self[i], out[k - i]) for i in range(1, k + 1))
            out.append(-r_mul(c0inv, acc))
        return Series(out)

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


class Substitution:
    """Substitution of one series q, with zero constant term, into others.
    The powers q^1, ..., q^n to q's order n are built once, each from its
    order-k coefficient on (q^k has no lower terms), so neither they nor a
    substitution multiply by a zero."""

    __slots__ = ("inner", "powers")

    def __init__(self, inner: Series):
        if not r_is_zero(inner[0]):
            raise ValueError("substituted series must have zero constant term")
        q = inner.coeffs
        # powers[k - 1][i] is q^k[k + i], the sum of q^(k-1)[k - 1 + j]
        # q[i + 1 - j] over j = 0..i.
        power = q[1:]
        powers = [power]
        for k in range(2, len(q)):
            power = tuple(
                ring_sum(r_mul(power[j], q[i + 1 - j]) for j in range(i + 1))
                for i in range(len(q) - k)
            )
            powers.append(power)
        self.inner = inner
        self.powers = tuple(powers)

    def __call__(self, outer: Series) -> Series:
        """outer(q) to the smaller order n: coefficient m sums outer[k] q^k[m]
        over k = 1..m, after outer[0] at m = 0.  The products by zero that
        are not taken would make a coefficient a matrix as soon as one of
        outer[0..n] or q[0..m] is (a scalar c stands for c times the
        identity), so such a coefficient is made one."""
        q, powers = self.inner.coeffs, self.powers
        n = min(outer.order, len(q) - 1)
        coeffs = [outer[0]] + [
            ring_sum(r_mul(outer[k], powers[k - 1][m - k]) for k in range(1, m + 1))
            for m in range(1, n + 1)
        ]
        if n:
            like = next((c for c in outer.coeffs[: n + 1] if isinstance(c, Matrix)), None)
            for m, c in enumerate(coeffs):
                if like is None and isinstance(q[m], Matrix):
                    like = q[m]
                if like is not None and not isinstance(c, Matrix):
                    coeffs[m] = r_add(r_zero_like(like), c)
        return Series(coeffs)


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
    product-group element by dividing by the indeterminate (dropping the
    constant term, which must vanish); the result is one order shorter."""
    if not r_is_zero(phi[0]):
        raise ValueError("cannot divide by the indeterminate: nonzero constant term")
    return Series(phi.coeffs[1:])


def cocycle_check(s: Cocycle, phi: Series, psi: Series) -> bool:
    """Whether s(psi) s(phi psi)^-1 (s(phi)^psi) is the unit series, up to
    the common truncation order."""
    lhs = s(psi) * s(gc_compose(phi, psi)).inverse() * gp_action(s(phi), psi)
    return lhs == one(lhs.order)


def sigma_action(f: Series, phi: Series, s: Cocycle) -> Series:
    """Twisted right action f . phi = f^phi s(phi)."""
    return gp_action(f, phi) * s(phi)
