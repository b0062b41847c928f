"""Sparse exact linear algebra over tree bases.

Four algebras share one element representation, distinguished by a tag:

* ``HGAMMA`` / ``HE`` -- free associative algebras on trees; a basis word is
  an ordered tuple of nonroot trees and the product is concatenation.
* ``HALPHA`` -- commutative polynomials on the generators V(u); a basis word
  is the sorted tuple of generator arguments u.
* ``HALPHA_NC`` -- the noncommutative lift; same generator words, unsorted.

The empty word is the unit (the root tree ``e``).  Coefficients are exact:
a Python ``int`` when integral and a ``fractions.Fraction`` otherwise, never
a float.  Every structure map has integer structure constants, so its
results stay in ``int`` arithmetic.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar

from .trees import Tree, E, decompose_over, compose_over, parse, render

Word = tuple[Tree, ...]
Coeff = int | Fraction
T = TypeVar("T")
L = TypeVar("L")


class Tag(enum.Enum):
    HGAMMA = "Hgamma"
    HE = "He"
    HALPHA = "Halpha"
    HALPHA_NC = "HalphaNC"


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


def _coeff(c) -> Coeff:
    """The one coefficient normalizer: an ``int`` stays an ``int``, an
    integral ``Fraction`` becomes its numerator, anything else (a ``str``, a
    non-integral ``Fraction``) becomes a ``Fraction``.  Floats are refused,
    because their binary value is not the decimal the caller wrote."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"coefficients must be exact (int, Fraction or str), not {c!r}")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _exact(terms: dict) -> dict:
    """Terms computed from exact coefficients: zeros dropped and integral
    ``Fraction``s (which ``int``/``Fraction`` arithmetic can produce) demoted
    to ``int``."""
    return {k: c if type(c) is int else _coeff(c) for k, c in terms.items() if c}


def word_degree(tag: Tag, word: Word) -> int:
    if tag is Tag.HALPHA or tag is Tag.HALPHA_NC:
        return sum(u.order + 1 for u in word)
    return sum(t.order for t in word)


def word_key(word: Word):
    return tuple(t.sort_key() for t in word)


def normalize_word(tag: Tag, word: Iterable[Tree]) -> Word:
    w = tuple(word)
    if tag is Tag.HALPHA:
        return tuple(sorted(w, key=Tree.sort_key))
    if tag is not Tag.HALPHA_NC and any(t is E for t in w):
        # In the free algebras a root-tree letter is the unit, not a letter.
        raise ValueError("basis words must not contain the root tree")
    return w


def multiply_words(tag: Tag, a: Word, b: Word) -> Word:
    """Product of two basis words; only the commutative algebra re-sorts."""
    if tag is Tag.HALPHA:
        return tuple(sorted(a + b, key=Tree.sort_key))
    return a + b


class Element:
    """Finite linear combination of basis words of one tagged algebra."""

    __slots__ = ("tag", "terms")

    def __init__(self, tag: Tag, terms: dict[Word, Coeff] | None = None):
        self.tag = tag
        self.terms: dict[Word, Coeff] = (
            {w: c for w, c0 in terms.items() if (c := _coeff(c0))} if terms else {}
        )

    @classmethod
    def _new(cls, tag: Tag, terms: dict[Word, Coeff]) -> "Element":
        """Trusted constructor for results computed here from exact terms."""
        x = object.__new__(cls)
        x.tag = tag
        x.terms = _exact(terms)
        return x

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return Element._new(self.tag, terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._new(self.tag, {w: -c for w, c in self.terms.items()})

    def scale(self, k) -> "Element":
        k = _coeff(k)
        return Element._new(self.tag, {w: k * c for w, c in self.terms.items()})

    def __rmul__(self, k) -> "Element":
        return self.scale(k)

    def __mul__(self, other) -> "Element":
        if not isinstance(other, Element):
            return self.scale(other)
        self._check(other)
        tag = self.tag
        terms: dict[Word, Coeff] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = multiply_words(tag, wa, wb)
                terms[w] = terms.get(w, 0) + ca * cb
        return Element._new(tag, terms)

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

    def counit(self) -> Coeff:
        """Coefficient of the empty word."""
        return self.terms.get((), 0)

    def grade_components(self) -> dict[int, "Element"]:
        out: dict[int, dict[Word, Coeff]] = {}
        for w, c in self.terms.items():
            out.setdefault(word_degree(self.tag, w), {})[w] = c
        return {d: Element._new(self.tag, t) for d, t in sorted(out.items())}

    def sorted_terms(self) -> list[tuple[Word, Coeff]]:
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
    return Element._new(tag, {(): 1})


def zero(tag: Tag) -> Element:
    return Element._new(tag, {})


def from_word(tag: Tag, word: Iterable[Tree], coeff=1) -> Element:
    return Element(tag, {normalize_word(tag, word): coeff})


def tree_word(tag: Tag, t: Tree) -> Word:
    """Basis word of a single tree: a one-letter word for the free algebras
    (the root tree is the empty word), the generator word of its
    over-factorization otherwise."""
    if tag in GENERATOR_TAGS:
        return normalize_word(tag, decompose_over(t))
    return () if t is E else (t,)


def embed_tree(tag: Tag, t: Tree) -> Element:
    """Basis element of a single tree (see :func:`tree_word`)."""
    return Element._new(tag, {tree_word(tag, t): 1})


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
        terms: dict[tuple[Word, ...], Coeff] | None = None,
    ):
        self.tags = tuple(tags)
        self.terms: dict[tuple[Word, ...], Coeff] = (
            {ws: c for ws, c0 in terms.items() if (c := _coeff(c0))} if terms else {}
        )

    @classmethod
    def _new(
        cls, tags: tuple[Tag, ...], terms: dict[tuple[Word, ...], Coeff]
    ) -> "TensorElement":
        """Trusted constructor for results computed here from exact terms."""
        x = object.__new__(cls)
        x.tags = tags
        x.terms = _exact(terms)
        return x

    @property
    def nslots(self) -> int:
        return len(self.tags)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        terms = dict(self.terms)
        for ws, c in other.terms.items():
            terms[ws] = terms.get(ws, 0) + c
        return TensorElement._new(self.tags, terms)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __neg__(self) -> "TensorElement":
        return TensorElement._new(self.tags, {ws: -c for ws, c in self.terms.items()})

    def scale(self, k) -> "TensorElement":
        k = _coeff(k)
        return TensorElement._new(self.tags, {ws: k * c for ws, c in self.terms.items()})

    def __rmul__(self, k) -> "TensorElement":
        return self.scale(k)

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product, slot by slot in each slot's algebra."""
        self._check(other)
        tags = self.tags
        terms: dict[tuple[Word, ...], Coeff] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                ws = tuple(map(multiply_words, tags, wa, wb))
                terms[ws] = terms.get(ws, 0) + ca * cb
        return TensorElement._new(tags, terms)

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
        terms: dict[tuple[Word, ...], Coeff] = {}
        for ws, c in self.terms.items():
            merged = multiply_words(self.tags[i], ws[i], ws[j])
            out = [ws[k] for k in rest]
            out.insert(target, merged)
            key = tuple(out)
            terms[key] = terms.get(key, 0) + c
        return TensorElement._new(tuple(tags), terms)

    def contract_counit(self, i: int) -> "TensorElement":
        """Apply the counit to slot i (keep only terms whose slot i is empty)."""
        tags = self.tags[:i] + self.tags[i + 1 :]
        terms: dict[tuple[Word, ...], Coeff] = {}
        for ws, c in self.terms.items():
            if ws[i]:
                continue
            key = ws[:i] + ws[i + 1 :]
            terms[key] = terms.get(key, 0) + c
        return TensorElement._new(tags, terms)

    def swap_slots(self, i: int, j: int) -> "TensorElement":
        perm = list(range(self.nslots))
        perm[i], perm[j] = perm[j], perm[i]
        tags = tuple(self.tags[k] for k in perm)
        return TensorElement._new(
            tags, {tuple(ws[k] for k in perm): c for ws, c in self.terms.items()}
        )

    def map_slot(
        self, i: int, f: Callable[[Word], "TensorElement | Element"]
    ) -> "TensorElement":
        """Splice ``f(word at slot i)`` into slot i, extending linearly.

        ``f`` may return an :class:`Element` (slot count preserved) or a
        :class:`TensorElement` (slot i expands into the image's slots).
        """
        return self._splice(i, 1, lambda ws: f(ws[0]))

    def _splice(
        self,
        i: int,
        width: int,
        f: Callable[[tuple[Word, ...]], "TensorElement | Element"],
    ) -> "TensorElement":
        """Replace the ``width`` slots from i by ``f`` of their words, extending
        linearly; every image is accumulated into one dict."""
        j = i + width
        terms: dict[tuple[Word, ...], Coeff] = {}
        image_tags = None
        for ws, c in self.terms.items():
            image = f(ws[i:j])
            if isinstance(image, Element):
                tags = (image.tag,)
                items = [((w,), k) for w, k in image.terms.items()]
            else:
                tags = image.tags
                items = image.terms.items()
            if image_tags is None:
                image_tags = tags
            elif tags != image_tags:
                raise ValueError(f"image tag mismatch: {image_tags} vs {tags}")
            head, tail = ws[:i], ws[j:]
            for iws, ic in items:
                key = head + iws + tail
                terms[key] = terms.get(key, 0) + c * ic
        if image_tags is None:
            raise ValueError("cannot infer output tags of a map applied to 0")
        return TensorElement._new(self.tags[:i] + image_tags + self.tags[j:], terms)

    def slot_element(self) -> Element:
        """View a 1-slot tensor as a plain element."""
        if self.nslots != 1:
            raise ValueError("not a 1-slot tensor")
        return Element._new(self.tags[0], {ws[0]: c for ws, c in self.terms.items()})

    def sorted_terms(self) -> list[tuple[tuple[Word, ...], Coeff]]:
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
    terms: dict[tuple[Word, ...], Coeff] = {}

    def rec(i: int, ws: tuple[Word, ...], c: Coeff):
        if i == len(xs):
            terms[ws] = c
            return
        for w, k in xs[i].terms.items():
            rec(i + 1, ws + (w,), c * k)

    rec(0, (), 1)
    return TensorElement._new(tags, terms)


def tensor_unit(tags: Sequence[Tag]) -> TensorElement:
    return TensorElement._new(tuple(tags), {tuple(() for _ in tags): 1})


def multiplicative(unit: Callable[[], T], letter: Callable[[L], T]) -> Callable[[Sequence[L]], T]:
    """Extend a map on letters to words: the product of ``letter(t)`` over
    the letters in written order.  The fold starts from the first letter,
    so ``unit()`` is built only for the empty word; a one-letter word gives
    ``letter(t)`` itself, which callers copy before returning."""

    def word_fn(word: Sequence[L]) -> T:
        if not word:
            return unit()
        acc = letter(word[0])
        for t in word[1:]:
            acc = acc * letter(t)
        return acc

    return word_fn


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
    terms: dict[Word, Coeff] = {}
    for term in data["terms"]:
        w = normalize_word(tag, [parse(s) for s in term["word"]])
        terms[w] = terms.get(w, 0) + _coeff(term["coeff"])
    return Element._new(tag, terms)


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
    terms: dict[tuple[Word, ...], Coeff] = {}
    for term in data["terms"]:
        ws = tuple(
            normalize_word(tag, [parse(s) for s in slot])
            for tag, slot in zip(tags, term["slots"])
        )
        terms[ws] = terms.get(ws, 0) + _coeff(term["coeff"])
    return TensorElement._new(tags, terms)
