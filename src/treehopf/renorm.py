"""Characters on the tree algebras and the order-by-order consistency of the
bare vs. renormalized propagator expansions.

A character assigns ring values (exact rationals or rational matrices) to
single trees, or to generators for the charge algebra, and extends to words
multiplicatively in written order.  The pipeline assembles the bare series
from a character, the renormalized series from the renormalization
coactions, the two renormalization factors, the charge substitution, and
compares both sides of the propagator relation coefficient by coefficient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .trees import Tree, E, enumerate_trees, all_trees_up_to, render
from .algebra import MAPS, Element, Tag, TensorElement, Word, embed_tree, GENERATOR_TAGS
from .hopf import ANTIPODE_NAME, antipode_p_e
from .qed import electron_renorm_coaction, photon_renorm_coaction
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
    copied into a read-only mapping, so the checks made here, and the values
    ``antipode_value`` memoizes, hold for the character's whole life.
    """

    tag: Tag
    values: Mapping[Tree, RingValue]
    ring_one: RingValue = Fraction(1)
    _antipode_values: dict[Word, RingValue] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    def antipode_value(self, word: Word) -> RingValue:
        """The character on the antipode of a basis word, memoized per word."""
        got = self._antipode_values.get(word)
        if got is None:
            s = MAPS[ANTIPODE_NAME[self.tag]]
            got = evaluate(self, s(Element(self.tag, {word: 1})))
            self._antipode_values[word] = got
        return got

    def __call__(self, x: Element | Tree) -> RingValue:
        if isinstance(x, Tree):
            x = embed_tree(self.tag, x)
        return evaluate(self, x)


def evaluate(chi: Character, x: Element) -> RingValue:
    """Linear-multiplicative evaluation of a character on an element."""
    if x.tag is not chi.tag:
        raise ValueError(f"character tag {chi.tag} cannot evaluate {x.tag}")
    return _pair_fold((chi.on_word,), (((w,), c) for w, c in x.terms.items()))


def pair_evaluate(chis: Sequence[Character], tensor: TensorElement) -> RingValue:
    """Evaluate one character per slot and multiply the slot values
    left-to-right; the multiplication order is part of the contract since
    values need not commute."""
    if len(chis) != tensor.nslots:
        raise ValueError("need one character per slot")
    for chi, tag in zip(chis, tensor.tags):
        if chi.tag is not tag:
            raise ValueError("character/slot tag mismatch")
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


def _random_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-3, 3)
    den = rng.randint(1, 4)
    return Fraction(num, den)


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
    """Electron counterterm series carried by the third coaction slot:
    1 plus the counterterms of the antipode images of all single nonroot
    trees, graded by order.

    Because the antipode pairing inverts the character series, this equals
    the multiplicative inverse of ``1 + sum C^e(t) alpha^|t|`` — it is the
    inverse of the electron renormalization factor, not the factor itself.
    ``z2_factor`` returns the factor.  The antipode images are evaluated
    here without ``Character.antipode_value``'s memo, so the two agree by
    independent routes.
    """
    if c_e.tag is not Tag.HE:
        raise ValueError("need an electron-algebra character")
    coeffs: list[RingValue] = [r_one_like(c_e.ring_one)]
    for k in range(1, n + 1):
        coeffs.append(_ring_sum(
            evaluate(c_e, antipode_p_e(embed_tree(Tag.HE, t))) for t in enumerate_trees(k)
        ))
    return Series(coeffs)


def z2_factor(c_e: Character, n: int) -> Series:
    """Electron renormalization factor: 1 plus the plain counterterms of all
    single nonroot trees, graded by order.  Inverse of ``z2_series``."""
    if c_e.tag is not Tag.HE:
        raise ValueError("need an electron-algebra character")
    coeffs: list[RingValue] = [r_one_like(c_e.ring_one)]
    for k in range(1, n + 1):
        coeffs.append(_ring_sum(c_e.letter(t) for t in enumerate_trees(k)))
    return Series(coeffs)


def ward_alpha0(z3: Series, n: Optional[int] = None) -> Series:
    """Charge substitution: the bare coupling as a series in the
    renormalized one, alpha0 = alpha / Z3."""
    if n is None:
        n = z3.order
    return (indeterminate(n) * z3.inverse().truncate(n)).truncate(n)


# -- renormalized coefficients ----------------------------------------------


def renormalized_photon(u: Character, c_gamma: Character, t: Tree) -> RingValue:
    """Renormalized photon coefficient: pair the bare character and the
    counterterm character with the photon renormalization coaction."""
    spread = photon_renorm_coaction(embed_tree(Tag.HGAMMA, t))
    return pair_evaluate([u, c_gamma], spread)


def renormalized_electron(
    u: Character, c_gamma: Character, c_e: Character, t: Tree
) -> RingValue:
    """Renormalized electron coefficient: three-slot pairing with the
    electron renormalization coaction, applying the electron antipode to the
    last slot before the counterterm; products are taken left-to-right."""
    spread = electron_renorm_coaction(embed_tree(Tag.HE, t))
    return _pair_fold((u.on_word, c_gamma.on_word, c_e.antipode_value), spread.terms.items())


def assemble_series(values_by_tree, n: int, ring_one: RingValue) -> Series:
    """Sum tree coefficients order by order into a truncated series."""
    coeffs: list[RingValue] = [ring_one]
    for k in range(1, n + 1):
        coeffs.append(_ring_sum(values_by_tree(t) for t in enumerate_trees(k)))
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


def dyson_check_photon(u: Character, c_gamma: Character, n: int) -> DysonReport:
    """Compare (renormalized photon series) * Z3 with the bare photon series
    evaluated at the substituted coupling, coefficient by coefficient."""
    z3 = z3_series(c_gamma, n)
    alpha0 = ward_alpha0(z3, n)
    bare = assemble_series(lambda t: u.letter(t), n, u.ring_one)
    renorm = assemble_series(
        lambda t: renormalized_photon(u, c_gamma, t), n, u.ring_one
    )
    lhs = renorm * z3
    rhs = bare.compose(alpha0)
    report = DysonReport("photon", n)
    for k in range(n + 1):
        report.residuals.append(r_add(lhs[k], r_mul(Fraction(-1), rhs[k])))
    return report


def dyson_check_electron(
    u: Character, c_gamma: Character, c_e: Character, n: int
) -> DysonReport:
    """Electron counterpart, with Z2 and the same substituted coupling.

    The renormalization factor Z2 multiplying the renormalized series is the
    plain counterterm series (``z2_factor``); its inverse is the antipode
    expansion ``z2_series`` produced by the coaction slot.
    """
    z3 = z3_series(c_gamma, n)
    alpha0 = ward_alpha0(z3, n)
    z2 = z2_factor(c_e, n)
    bare = assemble_series(lambda t: u.letter(t), n, u.ring_one)
    renorm = assemble_series(
        lambda t: renormalized_electron(u, c_gamma, c_e, t), n, u.ring_one
    )
    lhs = renorm * z2
    rhs = bare.compose(alpha0)
    report = DysonReport("electron", n)
    for k in range(n + 1):
        report.residuals.append(r_add(lhs[k], r_mul(Fraction(-1), rhs[k])))
    return report


# -- character tables as JSON -----------------------------------------------


def _value_to_json(v: RingValue):
    """A ring value as JSON: a string, or a list of rows of strings."""
    if isinstance(v, Matrix):
        return [[str(x) for x in row] for row in v.rows]
    return str(v)


def character_to_json(chi: Character) -> dict:
    return {
        "tag": chi.tag.value,
        "values": {render(t): _value_to_json(v) for t, v in sorted(chi.values.items(), key=lambda kv: kv[0].sort_key())},
    }


def character_from_json(data: dict) -> Character:
    from .trees import parse

    def dec(v):
        if isinstance(v, list):
            return Matrix.from_rows([[Fraction(x) for x in row] for row in v])
        return Fraction(v)

    values = {parse(k): dec(v) for k, v in data["values"].items()}
    ring_one: RingValue = Fraction(1)
    for v in values.values():
        if isinstance(v, Matrix):
            ring_one = Matrix.identity(v.dim)
            break
    return Character(Tag(data["tag"]), values, ring_one)
