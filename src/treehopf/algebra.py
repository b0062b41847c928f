"""Sparse exact linear algebra over tree bases.

Four algebras share one element representation, distinguished by a tag:

* ``HGAMMA`` / ``HE`` -- free associative algebras on trees; a basis word is
  an ordered tuple of nonroot trees and the product is concatenation.
* ``HALPHA`` -- commutative polynomials on the generators V(u); a basis word
  is the sorted tuple of generator arguments u.
* ``HALPHA_NC`` -- the noncommutative lift; same generator words, unsorted.

The empty word is the unit (the root tree ``e``).  Coefficients are exact
rationals throughout.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .trees import Tree, E, decompose_over, compose_over, parse, render

Word = tuple[Tree, ...]


class Tag(enum.Enum):
    HGAMMA = "Hgamma"
    HE = "He"
    HALPHA = "Halpha"
    HALPHA_NC = "HalphaNC"


COMMUTATIVE = frozenset({Tag.HALPHA})
GENERATOR_TAGS = frozenset({Tag.HALPHA, Tag.HALPHA_NC})

# The named structure maps, filled by :func:`structure_map` when ``hopf`` and
# ``qed`` are imported.  Both are plain dicts keyed by map name: the callable
# itself, and the tags of its input slots (one tag for an element, several
# for a tensor).
MAPS: dict[str, Callable] = {}
MAP_INPUTS: dict[str, tuple[Tag, ...]] = {}


def structure_map(name: str, *input_tags: Tag):
    """Register the decorated function in :data:`MAPS` under ``name``."""

    def register(fn: Callable) -> Callable:
        MAPS[name] = fn
        MAP_INPUTS[name] = input_tags
        return fn

    return register


def word_degree(tag: Tag, word: Word) -> int:
    if tag in GENERATOR_TAGS:
        return sum(u.order + 1 for u in word)
    return sum(t.order for t in word)


def word_key(word: Word):
    return tuple(t.sort_key() for t in word)


def normalize_word(tag: Tag, word: Iterable[Tree]) -> Word:
    w = tuple(word)
    if tag not in GENERATOR_TAGS and any(t is E for t in w):
        # In the free algebras a root-tree letter is the unit, not a letter.
        raise ValueError("basis words must not contain the root tree")
    if tag in COMMUTATIVE:
        w = tuple(sorted(w, key=Tree.sort_key))
    return w


def multiply_words(tag: Tag, a: Word, b: Word) -> Word:
    return normalize_word(tag, a + b)


class Element:
    """Finite linear combination of basis words of one tagged algebra."""

    __slots__ = ("tag", "terms")

    def __init__(self, tag: Tag, terms: dict[Word, Fraction] | None = None):
        self.tag = tag
        self.terms: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                if c:
                    self.terms[w] = self.terms.get(w, Fraction(0)) + Fraction(c)
            self.terms = {w: c for w, c in self.terms.items() if c}

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return Element(self.tag, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.tag, {w: -c for w, c in self.terms.items()})

    def scale(self, k) -> "Element":
        k = Fraction(k)
        return Element(self.tag, {w: k * c for w, c in self.terms.items()})

    def __rmul__(self, k) -> "Element":
        return self.scale(k)

    def __mul__(self, other) -> "Element":
        if not isinstance(other, Element):
            return self.scale(other)
        self._check(other)
        terms: dict[Word, Fraction] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = multiply_words(self.tag, wa, wb)
                terms[w] = terms.get(w, Fraction(0)) + ca * cb
        return Element(self.tag, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.tag is other.tag
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.tag, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "Element"):
        if self.tag is not other.tag:
            raise ValueError(f"algebra tag mismatch: {self.tag} vs {other.tag}")

    # -- inspection ---------------------------------------------------------

    def counit(self) -> Fraction:
        """Coefficient of the empty word."""
        return self.terms.get((), Fraction(0))

    def grade_components(self) -> dict[int, "Element"]:
        out: dict[int, dict[Word, Fraction]] = {}
        for w, c in self.terms.items():
            out.setdefault(word_degree(self.tag, w), {})[w] = c
        return {d: Element(self.tag, t) for d, t in sorted(out.items())}

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(
            self.terms.items(),
            key=lambda it: (word_degree(self.tag, it[0]), len(it[0]), word_key(it[0])),
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            body = "1" if not w else "*".join(render(t) for t in w)
            parts.append(f"{c}*{body}" if c != 1 else body)
        return " + ".join(parts).replace("+ -", "- ")


def unit(tag: Tag) -> Element:
    return Element(tag, {(): Fraction(1)})


def zero(tag: Tag) -> Element:
    return Element(tag)


def from_word(tag: Tag, word: Iterable[Tree], coeff=1) -> Element:
    return Element(tag, {normalize_word(tag, word): Fraction(coeff)})


def embed_tree(tag: Tag, t: Tree) -> Element:
    """Basis element of a single tree: a one-letter word for the free
    algebras, the generator word of its over-factorization otherwise."""
    if t is E:
        return unit(tag)
    if tag in GENERATOR_TAGS:
        return from_word(tag, decompose_over(t))
    return from_word(tag, (t,))


def word_as_tree(tag: Tag, word: Word) -> Tree:
    """Inverse of :func:`embed_tree` on generator words (the vector-space
    identification of the noncommutative lift with single trees)."""
    if tag not in GENERATOR_TAGS:
        raise ValueError("only generator words correspond to single trees")
    return compose_over(list(word))


class TensorElement:
    """Linear combination of tuples of basis words with per-slot algebra tags."""

    __slots__ = ("tags", "terms")

    def __init__(
        self,
        tags: Sequence[Tag],
        terms: dict[tuple[Word, ...], Fraction] | None = None,
    ):
        self.tags = tuple(tags)
        self.terms: dict[tuple[Word, ...], Fraction] = {}
        if terms:
            for ws, c in terms.items():
                if c:
                    self.terms[ws] = self.terms.get(ws, Fraction(0)) + Fraction(c)
            self.terms = {ws: c for ws, c in self.terms.items() if c}

    @property
    def nslots(self) -> int:
        return len(self.tags)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        terms = dict(self.terms)
        for ws, c in other.terms.items():
            terms[ws] = terms.get(ws, Fraction(0)) + c
        return TensorElement(self.tags, terms)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.tags, {ws: -c for ws, c in self.terms.items()})

    def scale(self, k) -> "TensorElement":
        k = Fraction(k)
        return TensorElement(self.tags, {ws: k * c for ws, c in self.terms.items()})

    def __rmul__(self, k) -> "TensorElement":
        return self.scale(k)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product, slot by slot in each slot's algebra."""
        self._check(other)
        terms: dict[tuple[Word, ...], Fraction] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                ws = tuple(
                    multiply_words(tag, x, y)
                    for tag, x, y in zip(self.tags, wa, wb)
                )
                terms[ws] = terms.get(ws, Fraction(0)) + ca * cb
        return TensorElement(self.tags, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.tags == other.tags
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.tags, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other: "TensorElement"):
        if self.tags != other.tags:
            raise ValueError(f"tensor tag mismatch: {self.tags} vs {other.tags}")

    def slot_multiply(self, i: int, j: int, target: int) -> "TensorElement":
        """Multiply slot i by slot j (in that order, in slot i's algebra) and
        place the product at index ``target`` of the reduced slot tuple."""
        if self.tags[i] is not self.tags[j]:
            raise ValueError("slots to merge carry different tags")
        rest = [k for k in range(self.nslots) if k not in (i, j)]
        tags = [self.tags[k] for k in rest]
        tags.insert(target, self.tags[i])
        terms: dict[tuple[Word, ...], Fraction] = {}
        for ws, c in self.terms.items():
            merged = multiply_words(self.tags[i], ws[i], ws[j])
            out = [ws[k] for k in rest]
            out.insert(target, merged)
            key = tuple(out)
            terms[key] = terms.get(key, Fraction(0)) + c
        return TensorElement(tags, terms)

    def contract_counit(self, i: int) -> "TensorElement":
        """Apply the counit to slot i (keep only terms whose slot i is empty)."""
        tags = self.tags[:i] + self.tags[i + 1 :]
        terms: dict[tuple[Word, ...], Fraction] = {}
        for ws, c in self.terms.items():
            if ws[i]:
                continue
            key = ws[:i] + ws[i + 1 :]
            terms[key] = terms.get(key, Fraction(0)) + c
        return TensorElement(tags, terms)

    def swap_slots(self, i: int, j: int) -> "TensorElement":
        perm = list(range(self.nslots))
        perm[i], perm[j] = perm[j], perm[i]
        tags = tuple(self.tags[k] for k in perm)
        return TensorElement(
            tags, {tuple(ws[k] for k in perm): c for ws, c in self.terms.items()}
        )

    def map_slot(
        self, i: int, f: Callable[[Word], "TensorElement | Element"]
    ) -> "TensorElement":
        """Splice ``f(word at slot i)`` into slot i, extending linearly.

        ``f`` may return an :class:`Element` (slot count preserved) or a
        :class:`TensorElement` (slot i expands into the image's slots).
        """
        out: TensorElement | None = None
        for ws, c in self.terms.items():
            image = f(ws[i])
            if isinstance(image, Element):
                image = TensorElement((image.tag,), {(w,): k for w, k in image.terms.items()})
            tags = self.tags[:i] + image.tags + self.tags[i + 1 :]
            terms: dict[tuple[Word, ...], Fraction] = {}
            for iws, ic in image.terms.items():
                key = ws[:i] + iws + ws[i + 1 :]
                terms[key] = terms.get(key, Fraction(0)) + c * ic
            piece = TensorElement(tags, terms)
            out = piece if out is None else out + piece
        if out is None:
            raise ValueError("cannot infer output tags of a map applied to 0")
        return out

    def slot_element(self) -> Element:
        """View a 1-slot tensor as a plain element."""
        if self.nslots != 1:
            raise ValueError("not a 1-slot tensor")
        return Element(self.tags[0], {ws[0]: c for ws, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[tuple[Word, ...], Fraction]]:
        return sorted(
            self.terms.items(),
            key=lambda it: tuple(
                (word_degree(tag, w), len(w), word_key(w))
                for tag, w in zip(self.tags, it[0])
            ),
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for ws, c in self.sorted_terms():
            slots = " (x) ".join(
                "1" if not w else "*".join(render(t) for t in w) for w in ws
            )
            parts.append(f"{c}*[{slots}]" if c != 1 else f"[{slots}]")
        return " + ".join(parts).replace("+ -", "- ")


def tensor(xs: Sequence[Element]) -> TensorElement:
    """Outer tensor product of elements, one per slot."""
    tags = tuple(x.tag for x in xs)
    terms: dict[tuple[Word, ...], Fraction] = {}

    def rec(i: int, ws: tuple[Word, ...], c: Fraction):
        if i == len(xs):
            terms[ws] = terms.get(ws, Fraction(0)) + c
            return
        for w, k in xs[i].terms.items():
            rec(i + 1, ws + (w,), c * k)

    rec(0, (), Fraction(1))
    return TensorElement(tags, terms)


def tensor_unit(tags: Sequence[Tag]) -> TensorElement:
    return TensorElement(tuple(tags), {tuple(() for _ in tags): Fraction(1)})


def lift_linear(
    tag: Tag, word_fn: Callable[[Word], "TensorElement | Element"]
) -> Callable[[Element], TensorElement]:
    """Extend a per-word map linearly to whole elements."""

    def apply(x: Element) -> TensorElement:
        if x.tag is not tag:
            raise ValueError(f"expected a {tag} element, got {x.tag}")
        return tensor([x]).map_slot(0, word_fn)

    return apply


# -- JSON encoding ----------------------------------------------------------


def element_to_json(x: Element) -> dict:
    return {
        "tag": x.tag.value,
        "terms": [
            {"coeff": str(c), "word": [render(t) for t in w]}
            for w, c in x.sorted_terms()
        ],
    }


def element_from_json(data: dict) -> Element:
    tag = Tag(data["tag"])
    out = zero(tag)
    for term in data["terms"]:
        word = [parse(s) for s in term["word"]]
        out = out + from_word(tag, word, Fraction(term["coeff"]))
    return out


def tensor_to_json(x: TensorElement) -> dict:
    return {
        "tags": [t.value for t in x.tags],
        "terms": [
            {"coeff": str(c), "slots": [[render(t) for t in w] for w in ws]}
            for ws, c in x.sorted_terms()
        ],
    }


def tensor_from_json(data: dict) -> TensorElement:
    tags = tuple(Tag(t) for t in data["tags"])
    terms: dict[tuple[Word, ...], Fraction] = {}
    for term in data["terms"]:
        ws = tuple(
            normalize_word(tag, [parse(s) for s in slot])
            for tag, slot in zip(tags, term["slots"])
        )
        terms[ws] = terms.get(ws, Fraction(0)) + Fraction(term["coeff"])
    return TensorElement(tags, terms)
