"""Characters on the tree algebras and the order-by-order consistency of the
bare vs. renormalized propagator expansions.

A character assigns ring values (exact rationals or rational matrices) to
single trees, or to generators for the charge algebra, and extends to words
multiplicatively in written order.

Renormalization is a coaction: a propagator tree goes through delta_gamma or
delta_e, then is paired with the bare and counterterm characters.  Two
routes compute it.  The series route, which ``treehopf renorm`` runs: the
over and under products are free monoids, so summed over one order the
renormalized series is A·B (photon) or A·``z2_series`` (electron), left
factor first, with A read from the charge coaction table
(``_coaction_series``).  B = 1/Z3 and ``z2_series`` = 1/Z2 cancel the factor
each report multiplies by, so a Dyson report compares A with the bare series
at the substituted coupling alpha0 = alpha / Z3, coefficient by coefficient.
Both reports read the counterterm c_gamma the same way, through the charge
coaction and alpha0, so ``dyson_reports`` builds that charge side
(``_charge_side``) once for the two, with the coaction pairs of all trees of
one order coalesced: one ring product per distinct pair.
Its oracle is the registered-map pairing ``renormalized_photon`` and
``renormalized_electron``, which read ``delta-gamma``, ``delta-e`` and
``antipode-p-e`` from this module's ``MAPS`` at call time, so a map set from
``checks.corrupt_map`` bound there reaches them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .trees import Tree, E, enumerate_trees, all_trees_up_to, render
from .algebra import MAPS, Element, Tag, TensorElement, Word, embed_tree, tree_word
from .hopf import charge_coaction_tree
from .series import (
    Matrix,
    RingValue,
    Series,
    r_add,
    r_eq,
    r_is_central,
    r_is_zero,
    r_mul,
    r_one_like,
    indeterminate,
)


def _commute(a: RingValue, b: RingValue) -> bool:
    return r_eq(r_mul(a, b), r_mul(b, a))


def _ring_sum(values: Iterable[RingValue]) -> RingValue:
    """Sum starting from the first value (no ``0 + v`` identity term); the
    empty sum is ``Fraction(0)``."""
    it = iter(values)
    acc = next(it, Fraction(0))
    for v in it:
        acc = r_add(acc, v)
    return acc


@dataclass(frozen=True)
class Character:
    """Multiplicative ring-valued map on one tagged algebra.

    For the free algebras the values are keyed by single trees; for the
    charge algebra (and its lift) by the generator argument u of V(u).
    The unit word always evaluates to the ring identity.  The values are
    copied into a read-only mapping, so the checks made here hold for the
    character's whole life.
    """

    tag: Tag
    values: Mapping[Tree, RingValue]
    ring_one: RingValue = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        if not self.tag.generators and E in self.values:
            raise ValueError("the root tree is the unit; do not assign it a value")
        if self.tag.commutative:
            # Central values commute with everything, so only the others
            # need the pairwise test.
            vals = [v for v in self.values.values() if not r_is_central(v)]
            for i, a in enumerate(vals):
                for b in vals[i + 1 :]:
                    if not _commute(a, b):
                        raise ValueError(
                            "charge-algebra characters need pairwise commuting values"
                        )

    def letter(self, t: Tree) -> RingValue:
        if t is E and not self.tag.generators:
            # In the free algebras the root tree is the algebra unit; for the
            # charge algebra it is the argument of the degree-one generator
            # and carries an honest value like any other letter.
            return self.ring_one
        try:
            return self.values[t]
        except KeyError:
            raise KeyError(
                f"character has no value for {render(t)}"
            ) from None

    def on_word(self, word: Word) -> RingValue:
        """Product of the letter values in written order, folded from the
        first letter; the empty word gives ``ring_one``."""
        if not word:
            return self.ring_one
        acc = self.letter(word[0])
        for t in word[1:]:
            acc = r_mul(acc, self.letter(t))
        return acc

    def __call__(self, x: Element | Tree) -> RingValue:
        if isinstance(x, Tree):
            x = embed_tree(self.tag, x)
        return evaluate(self, x)


def evaluate(chi: Character, x: Element) -> RingValue:
    """Linear-multiplicative evaluation of a character on a one-slot tensor."""
    return pair_evaluate((chi,), x)


def _check_tags(chis: Sequence[Character], tags: Sequence[Tag]) -> None:
    if any(chi.tag is not tag for chi, tag in zip(chis, tags)):
        raise ValueError("character/slot tag mismatch")


def pair_evaluate(chis: Sequence[Character], tensor: TensorElement) -> RingValue:
    """Evaluate one character per slot and multiply the slot values
    left-to-right; the multiplication order is part of the contract since
    values need not commute."""
    if len(chis) != tensor.nslots:
        raise ValueError("need one character per slot")
    _check_tags(chis, tensor.tags)
    slot_fns = [chi.on_word for chi in chis]
    return _ring_sum(
        _slot_product(c, [value(w) for value, w in zip(slot_fns, ws)])
        for ws, c in tensor.terms.items()
    )


def _slot_product(c, values: Sequence[RingValue]) -> RingValue:
    """c times the slot values, multiplied left-to-right.  Scalar factors
    equal to 1 are skipped but matrices never are, so a product with a
    matrix factor is still a matrix."""
    acc: Optional[RingValue] = None if c == 1 else Fraction(c)
    for v in values:
        if isinstance(v, Matrix) or v != 1:
            acc = v if acc is None else r_mul(acc, v)
    return Fraction(1) if acc is None else acc


# -- toy characters ---------------------------------------------------------


_FRACTIONS = tuple(Fraction(num, den) for num in range(-3, 4) for den in range(1, 5))


def _random_fraction(rng: random.Random) -> Fraction:
    """num/den from the same draws as ``randint(-3, 3)`` then ``randint(1, 4)``."""
    return _FRACTIONS[4 * rng.randrange(7) + rng.randrange(4)]


def make_toy_character(
    tag: Tag,
    seed: int,
    kind: str = "scalar",
    d: int = 4,
    max_order: int = 6,
) -> Character:
    """Seed-deterministic character with small rational values.

    ``kind='matrix'`` draws dense d x d rational matrices; on the charge
    algebra and its lift (the generator tags) matrix values are restricted
    to scalar multiples of the identity so that the commutativity
    requirement holds.  Any other ``kind`` is refused.
    """
    if kind not in ("scalar", "matrix"):
        raise ValueError(f"unknown character kind {kind!r}")
    rng = random.Random(f"{seed}-{tag.value}-{kind}-{d}")
    values: dict[Tree, RingValue] = {}
    for t in all_trees_up_to(max_order):
        if t is E and not tag.generators:
            continue
        if kind == "scalar":
            values[t] = _random_fraction(rng)
        elif tag.generators:
            values[t] = Matrix.identity(d).scale(_random_fraction(rng))
        else:
            values[t] = Matrix.from_rows([[_random_fraction(rng) for _ in range(d)] for _ in range(d)])
    ring_one = Matrix.identity(d) if kind == "matrix" else Fraction(1)
    return Character(tag, values, ring_one)


# -- renormalization factors and series -------------------------------------


def assemble_series(values_by_tree, n: int, ring_one: RingValue) -> Series:
    """Sum tree coefficients order by order into a truncated series."""
    coeffs: list[RingValue] = [ring_one]
    for k in range(1, n + 1):
        coeffs.append(_ring_sum(values_by_tree(t) for t in enumerate_trees(k)))
    return Series(coeffs)


def z3_series(c_gamma: Character, n: int) -> Series:
    """Photon renormalization factor: 1 minus the sum of the counterterms of
    all charge generators, graded by generator degree."""
    if c_gamma.tag is not Tag.HALPHA:
        raise ValueError("need a charge-algebra character")
    coeffs: list[RingValue] = [r_one_like(c_gamma.ring_one)]
    for k in range(1, n + 1):
        acc = _ring_sum(c_gamma.letter(t) for t in enumerate_trees(k - 1))
        coeffs.append(r_mul(Fraction(-1), acc))
    return Series(coeffs)


def z2_series(c_e: Character, n: int) -> Series:
    """1 plus the counterterms of the antipode images of all single nonroot
    trees, graded by order: the inverse of ``z2_factor``, since the antipode
    pairing inverts the character series."""
    if c_e.tag is not Tag.HE:
        raise ValueError("need an electron-algebra character")
    s = MAPS["antipode-p-e"]
    return assemble_series(
        lambda t: evaluate(c_e, s(embed_tree(Tag.HE, t))), n, r_one_like(c_e.ring_one)
    )


def z2_factor(c_e: Character, n: int) -> Series:
    """Electron renormalization factor: 1 plus the plain counterterms of all
    single nonroot trees, graded by order.  Inverse of ``z2_series``."""
    if c_e.tag is not Tag.HE:
        raise ValueError("need an electron-algebra character")
    return assemble_series(c_e.letter, n, r_one_like(c_e.ring_one))


def ward_alpha0(z3: Series) -> Series:
    """Charge substitution: the bare coupling as a series in the
    renormalized one, alpha0 = alpha / Z3, to the order of Z3."""
    return indeterminate(z3.order) * z3.inverse()


# -- renormalized coefficients ----------------------------------------------


def renormalized_photon(u: Character, c_gamma: Character, t: Tree) -> RingValue:
    """Renormalized photon coefficient: the bare and counterterm characters
    paired with the photon renormalization coaction of t (``delta-gamma``)."""
    return pair_evaluate((u, c_gamma), MAPS["delta-gamma"](embed_tree(Tag.HGAMMA, t)))


def renormalized_electron(
    u: Character, c_gamma: Character, c_e: Character, t: Tree
) -> RingValue:
    """Renormalized electron coefficient: the three characters paired with
    the electron renormalization coaction of t (``delta-e``), whose last slot
    has gone through the electron antipode; products are taken left-to-right."""
    spread = MAPS["delta-e"](embed_tree(Tag.HE, t)).map_slot(2, MAPS["antipode-p-e"])
    return pair_evaluate((u, c_gamma, c_e), spread)


# -- renormalized series ----------------------------------------------------


class _ChargeSide(NamedTuple):
    """What both Dyson reports read of the charge counterterm c_gamma: per
    order m, the charge sums S_m(a1) = sum of k·c_gamma(a2) over the charge
    coaction pairs (a1, a2) of all trees of order m, k their multiplicity;
    and the substituted coupling alpha0 = alpha / Z3."""

    sums: tuple[dict[Tree, RingValue], ...]
    alpha0: Series


def _charge_side(c_gamma: Character, n: int) -> _ChargeSide:
    """The charge side to order n.  The multiplicities of each pair are
    summed over the trees of one order first, so each distinct (a1, a2)
    costs one ring product per order, and each a2's charge value is read
    once per call."""
    charge: dict[Tree, RingValue] = {}
    sums = []
    for m in range(1, n + 1):
        pairs: Counter[tuple[Tree, Tree]] = Counter()
        for a in enumerate_trees(m):
            pairs.update(charge_coaction_tree(a))
        s: dict[Tree, RingValue] = {}
        for (a1, a2), k in pairs.items():
            c = charge.get(a2)
            if c is None:
                c = charge[a2] = c_gamma.on_word(tree_word(Tag.HALPHA, a2))
            v = _slot_product(k, [c])
            s[a1] = r_add(s[a1], v) if a1 in s else v
        sums.append(s)
    return _ChargeSide(tuple(sums), ward_alpha0(z3_series(c_gamma, n)))


def _coaction_series(u: Character, side: _ChargeSide) -> Series:
    """Left factor A of both renormalized series: the coefficient of order m
    is the sum of u(a1)·S_m(a1), left factor first, over the a1 of the
    charge side's order-m sums, so each distinct a1 costs one ring product
    per order."""
    coeffs: list[RingValue] = [u.ring_one]
    for s in side.sums:
        coeffs.append(_ring_sum(_slot_product(1, [u.letter(a1), v]) for a1, v in s.items()))
    return Series(coeffs)


# -- order-by-order consistency reports -------------------------------------


@dataclass
class DysonReport:
    """Per-order residuals of a propagator consistency check."""

    which: str
    order: int
    residuals: list[RingValue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r_is_zero(r) for r in self.residuals)

    @property
    def first_failure(self) -> Optional[int]:
        for k, r in enumerate(self.residuals):
            if not r_is_zero(r):
                return k
        return None

    def to_json(self) -> dict:
        return {
            "which": self.which,
            "order": self.order,
            "per_order_residuals": {str(k): _value_to_json(r) for k, r in enumerate(self.residuals)},
            "status": "ok" if self.ok else f"fail@order={self.first_failure}",
        }


def _dyson_report(which: str, u: Character, side: _ChargeSide) -> DysonReport:
    """Residuals of A (``_coaction_series``) against the bare series of ``u``
    evaluated at the substituted coupling alpha0 = alpha / Z3.  Only u is
    read here; the charge side is built once and may serve both reports."""
    n = side.alpha0.order
    lhs = _coaction_series(u, side)
    rhs = assemble_series(u.letter, n, u.ring_one).compose(side.alpha0)
    return DysonReport(which, n, [r_add(lhs[k], r_mul(Fraction(-1), rhs[k])) for k in range(n + 1)])


def dyson_check_photon(u: Character, c_gamma: Character, n: int) -> DysonReport:
    """Compare (renormalized photon series) * Z3 with the bare photon series
    at the substituted coupling.  The renormalized series is A·B with
    B = sum over trees b of c_gamma(sigma(b)) x^|b| = 1/Z3, so B and Z3
    cancel and neither is built."""
    _check_tags((u, c_gamma), (Tag.HGAMMA, Tag.HALPHA))
    return _dyson_report("photon", u, _charge_side(c_gamma, n))


def dyson_check_electron(
    u: Character, c_gamma: Character, c_e: Character, n: int
) -> DysonReport:
    """Electron counterpart, with Z2 (``z2_factor``).  The renormalized
    series is A·``z2_series`` and ``z2_series`` = 1/Z2, so Z2 cancels: the
    report does not depend on c_e, whose tag is still checked."""
    _check_tags((u, c_gamma, c_e), (Tag.HE, Tag.HALPHA, Tag.HE))
    return _dyson_report("electron", u, _charge_side(c_gamma, n))


def dyson_reports(
    u_gamma: Character, u_e: Character, c_gamma: Character, c_e: Character, n: int
) -> tuple[DysonReport, DysonReport]:
    """The photon and electron reports of ``dyson_check_photon`` and
    ``dyson_check_electron``, which read the same c_gamma: its charge side
    is built once and read by both."""
    _check_tags((u_gamma, c_gamma, u_e, c_e), (Tag.HGAMMA, Tag.HALPHA, Tag.HE, Tag.HE))
    side = _charge_side(c_gamma, n)
    return _dyson_report("photon", u_gamma, side), _dyson_report("electron", u_e, side)


# -- JSON -------------------------------------------------------------------


def _value_to_json(v: RingValue):
    """A ring value as JSON: a string, or a list of rows of strings."""
    if isinstance(v, Matrix):
        return [[str(x) for x in row] for row in v.rows]
    return str(v)
