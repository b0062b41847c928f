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
Its oracle is the registered-map pairing ``renormalized_photon`` and
``renormalized_electron``, which read ``delta-gamma``, ``delta-e`` and
``antipode-p-e`` from this module's ``MAPS`` at call time, so a map set from
``checks.corrupt_map`` bound there reaches them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .trees import Tree, E, enumerate_trees, all_trees_up_to, render
from .algebra import MAPS, Element, Tag, TensorElement, Word, embed_tree, tree_word, GENERATOR_TAGS
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
        if self.tag not in GENERATOR_TAGS and E in self.values:
            raise ValueError("the root tree is the unit; do not assign it a value")
        if self.tag is Tag.HALPHA:
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
        if t is E and self.tag not in GENERATOR_TAGS:
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
    if x.tags != (chi.tag,):
        raise ValueError(f"character tag {chi.tag} cannot evaluate {x.tags}")
    return _pair_fold((chi.on_word,), x.terms.items())


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
    return _pair_fold([chi.on_word for chi in chis], tensor.terms.items())


def _pair_fold(slot_fns: Sequence, terms: Iterable) -> RingValue:
    """Sum over the (words, c) terms of c times the slot values
    ``slot_fns[i](words[i])``, multiplied left-to-right."""
    return _ring_sum(
        _slot_product(c, [value(w) for value, w in zip(slot_fns, ws)])
        for ws, c in terms
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
    algebra matrix values are restricted to scalar multiples of the identity
    so that the commutativity requirement holds.
    """
    rng = random.Random(f"{seed}-{tag.value}-{kind}-{d}")
    values: dict[Tree, RingValue] = {}
    scalar_only = tag in GENERATOR_TAGS
    for t in all_trees_up_to(max_order):
        if t is E and not scalar_only:
            continue
        if kind == "scalar":
            values[t] = _random_fraction(rng)
        elif kind == "matrix":
            if scalar_only:
                values[t] = Matrix.identity(d).scale(_random_fraction(rng))
            else:
                values[t] = Matrix.from_rows(
                    [[_random_fraction(rng) for _ in range(d)] for _ in range(d)]
                )
        else:
            raise ValueError(f"unknown character kind {kind!r}")
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


def _coaction_series(u: Character, c_gamma: Character, n: int) -> Series:
    """Left factor A of both renormalized series: the coefficient of order m
    sums u(a1)·k·c_gamma(a2) over the charge coaction pairs (a1, a2) of the
    trees a of order m.  The charge values are summed per a1 over all trees
    of one order first, so each distinct a1 costs one ring product per
    order, and each a2's charge value is read once per call."""
    charge: dict[Tree, RingValue] = {}
    coeffs: list[RingValue] = [u.ring_one]
    for m in range(1, n + 1):
        sums: dict[Tree, RingValue] = {}
        for a in enumerate_trees(m):
            for (a1, a2), k in charge_coaction_tree(a).items():
                c = charge.get(a2)
                if c is None:
                    c = charge[a2] = c_gamma.on_word(tree_word(Tag.HALPHA, a2))
                v = _slot_product(k, [c])
                sums[a1] = r_add(sums[a1], v) if a1 in sums else v
        coeffs.append(_ring_sum(_slot_product(1, [u.letter(a1), s]) for a1, s in sums.items()))
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


def _dyson_report(which: str, u: Character, c_gamma: Character, n: int) -> DysonReport:
    """Residuals of A (``_coaction_series``) against the bare series of ``u``
    evaluated at the substituted coupling alpha0 = alpha / Z3."""
    lhs = _coaction_series(u, c_gamma, n)
    rhs = assemble_series(u.letter, n, u.ring_one).compose(ward_alpha0(z3_series(c_gamma, n)))
    return DysonReport(which, n, [r_add(lhs[k], r_mul(Fraction(-1), rhs[k])) for k in range(n + 1)])


def dyson_check_photon(u: Character, c_gamma: Character, n: int) -> DysonReport:
    """Compare (renormalized photon series) * Z3 with the bare photon series
    at the substituted coupling.  The renormalized series is A·B with
    B = sum over trees b of c_gamma(sigma(b)) x^|b| = 1/Z3, so B and Z3
    cancel and neither is built."""
    _check_tags((u, c_gamma), (Tag.HGAMMA, Tag.HALPHA))
    return _dyson_report("photon", u, c_gamma, n)


def dyson_check_electron(
    u: Character, c_gamma: Character, c_e: Character, n: int
) -> DysonReport:
    """Electron counterpart, with Z2 (``z2_factor``).  The renormalized
    series is A·``z2_series`` and ``z2_series`` = 1/Z2, so Z2 cancels: the
    report does not depend on c_e, whose tag is still checked."""
    _check_tags((u, c_gamma, c_e), (Tag.HE, Tag.HALPHA, Tag.HE))
    return _dyson_report("electron", u, c_gamma, n)


# -- JSON -------------------------------------------------------------------


def _value_to_json(v: RingValue):
    """A ring value as JSON: a string, or a list of rows of strings."""
    if isinstance(v, Matrix):
        return [[str(x) for x in row] for row in v.rows]
    return str(v)
