"""Sparse exact linear algebra over tree bases.

One type holds every linear combination: a :class:`TensorElement` maps
tuples of basis words, one word per slot, to coefficients, and each slot
carries the tag of its algebra.  An :class:`Element` of one algebra is a
one-slot tensor: its ``terms`` are keyed by ``(word,)``, and only its
constructor takes bare words.  :func:`lift_linear` turns a function of
one word per slot into a linear map, a *word map*, which carries the tags
of its input slots as ``tags`` and of its images as ``out_tags``; every
structure map is one, built once and registered in :data:`MAPS`, a
composite with its recipe as ``parts``.  :meth:`TensorElement.map_slot`
hands a word map the words of the slots that carry its tags, and puts
``out_tags`` in their place.  Four algebras are tagged, and each
:class:`Tag` states its shape once: whether its letters are
``generators``, whether it is ``commutative``, and the names in ``MAPS`` of
its ``coproduct`` and ``antipode``.

* ``HGAMMA`` / ``HE`` -- free associative algebras on trees; a basis word is
  an ordered tuple of nonroot trees and the product is concatenation.
* ``HALPHA`` -- commutative polynomials on the generators V(u), of degree
  |u| + 1; a basis word is the sorted tuple of generator arguments u.
* ``HALPHA_NC`` -- the noncommutative lift; same generator words, unsorted.

The empty word is the unit (the root tree ``e``).  Coefficients are exact:
a Python ``int`` when integral and a ``fractions.Fraction`` otherwise, never
a float.  Every structure map has integer structure constants, so its
results stay in ``int`` arithmetic.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar

from .trees import Tree, E, decompose_over, compose_over, render

Word = tuple[Tree, ...]
Coeff = int | Fraction
T = TypeVar("T")
L = TypeVar("L")


class Tag(enum.Enum):
    # value, generators, commutative, coproduct, antipode
    HGAMMA = "Hgamma", False, False, "delta-p-gamma", "antipode-p-gamma"
    HE = "He", False, False, "delta-p-e", "antipode-p-e"
    HALPHA = "Halpha", True, True, "delta-alpha", "antipode-alpha"
    HALPHA_NC = "HalphaNC", True, False, "delta-alpha-nc", "antipode-alpha-nc"

    def __new__(cls, value: str, generators: bool, commutative: bool, coproduct: str, antipode: str):
        tag = object.__new__(cls)
        tag._value_ = value
        tag.generators, tag.commutative = generators, commutative
        tag.coproduct, tag.antipode = coproduct, antipode
        return tag

    # Members are singletons that compare by identity, so they may hash by
    # it too: a Tag-keyed lookup then calls no ``Enum.__hash__`` in Python.
    __hash__ = object.__hash__


# The named structure maps, filled by :func:`structure_map` when ``hopf`` and
# ``qed`` are imported: word maps keyed by map name, each carrying its input
# and output tags, and each composite its recipe (:func:`composite_map`).
MAPS: dict[str, Callable] = {}


def structure_map(name: str):
    """Register the decorated word map in :data:`MAPS` under ``name``."""

    def register(fn: Callable) -> Callable:
        MAPS[name] = fn
        return fn

    return register


def composite_map(name: str, tags: tuple[Tag, ...], out_tags: tuple[Tag, ...]):
    """Decorator for a map built from other structure maps: the decorated
    function of ``(maps, *words)`` reads its parts from ``maps``, and its word
    map over :data:`MAPS` (:func:`over_maps`) goes into ``MAPS``."""
    return lambda fn: structure_map(name)(functools.wraps(fn)(over_maps(MAPS, tags, out_tags, fn)))


def over_maps(
    maps: dict[str, Callable], tags: tuple[Tag, ...], out_tags: tuple[Tag, ...], parts: Callable
) -> Callable:
    """The word map of the recipe ``parts``, a function of ``(maps, *words)``,
    over ``maps``; it keeps ``parts``, to be rebuilt over another map set."""
    f = lift_linear(tags, out_tags, functools.partial(parts, maps))
    f.parts = parts
    return f


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
    if tag.generators:
        return sum(u.order + 1 for u in word)
    return sum(t.order for t in word)


def normalize_word(tag: Tag, word: Iterable[Tree]) -> Word:
    w = tuple(word)
    if not tag.generators and any(t is E for t in w):
        # In the free algebras a root-tree letter is the unit, not a letter.
        raise ValueError("basis words must not contain the root tree")
    return tuple(sorted(w, key=Tree.sort_key)) if tag.commutative else w


def multiply_words(tag: Tag, a: Word, b: Word) -> Word:
    """Product of two basis words; only a commutative algebra re-sorts,
    and only when both words have letters: a basis word times the empty
    word is already sorted."""
    if tag.commutative and a and b:
        return tuple(sorted(a + b, key=Tree.sort_key))
    return a + b


class TensorElement:
    """Linear combination of tuples of basis words with per-slot algebra
    tags: ``terms`` maps a tuple of words, one per slot and each normal
    (:func:`normalize_word`), to its coefficient.  A one-slot result is an :class:`Element`."""

    __slots__ = ("tags", "terms")

    def __init__(
        self,
        tags: Sequence[Tag],
        terms: dict[tuple[Word, ...], Coeff] | None = None,
    ):
        self.tags = tuple(tags)
        summed: dict[tuple[Word, ...], Coeff] = {}
        for ws, c in (terms or {}).items():
            key = tuple(normalize_word(tag, w) for tag, w in zip(self.tags, ws, strict=True))
            summed[key] = summed.get(key, 0) + _coeff(c)
        self.terms = _exact(summed)

    @staticmethod
    def _new(tags: tuple[Tag, ...], terms: dict[tuple[Word, ...], Coeff]) -> "TensorElement":
        """Trusted constructor: ``terms`` are already exact (no zero
        coefficient, no integral ``Fraction``) and keyed by normal words, and
        are kept as given.  A caller whose sums can cancel, or whose
        ``Fraction`` products can be integral, passes ``_exact(terms)``.  A
        one-slot result is an :class:`Element`."""
        x = object.__new__(Element if len(tags) == 1 else TensorElement)
        x.tags = tags
        x.terms = terms
        return x

    @property
    def nslots(self) -> int:
        return len(self.tags)

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        terms = dict(self.terms)
        for ws, c in other.terms.items():
            terms[ws] = terms.get(ws, 0) + c
        return TensorElement._new(self.tags, _exact(terms))

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def __neg__(self) -> "TensorElement":
        return TensorElement._new(self.tags, {ws: -c for ws, c in self.terms.items()})

    def scale(self, k) -> "TensorElement":
        k = _coeff(k)
        return TensorElement._new(self.tags, _exact({ws: k * c for ws, c in self.terms.items()}))

    def __rmul__(self, k) -> "TensorElement":
        return self.scale(k)

    def __mul__(self, other) -> "TensorElement":
        """Componentwise product, slot by slot in each slot's algebra; a
        coefficient scales."""
        if not isinstance(other, TensorElement):
            return self.scale(other)
        self._check(other)
        tags = self.tags
        terms: dict[tuple[Word, ...], Coeff] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                ws = tuple(map(multiply_words, tags, wa, wb))
                terms[ws] = terms.get(ws, 0) + ca * cb
        return TensorElement._new(tags, _exact(terms))

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
        n = self.nslots
        if i == j or not (0 <= i < n and 0 <= j < n and 0 <= target < n - 1):
            raise ValueError(f"cannot merge slots {i} and {j} into slot {target} of {n} slots")
        if self.tags[i] is not self.tags[j]:
            raise ValueError("slots to merge carry different tags")
        rest = [k for k in range(n) if k not in (i, j)]
        tags = [self.tags[k] for k in rest]
        tags.insert(target, self.tags[i])
        terms: dict[tuple[Word, ...], Coeff] = {}
        for ws, c in self.terms.items():
            merged = multiply_words(self.tags[i], ws[i], ws[j])
            out = [ws[k] for k in rest]
            out.insert(target, merged)
            key = tuple(out)
            terms[key] = terms.get(key, 0) + c
        return TensorElement._new(tuple(tags), _exact(terms))

    def contract_counit(self, i: int) -> "TensorElement":
        """Apply the counit to slot i (keep only terms whose slot i is empty;
        the kept keys stay distinct, so no coefficient is summed)."""
        if not 0 <= i < self.nslots:
            raise ValueError(f"no slot {i} in a {self.nslots}-slot tensor")
        tags = self.tags[:i] + self.tags[i + 1 :]
        terms: dict[tuple[Word, ...], Coeff] = {}
        for ws, c in self.terms.items():
            if not ws[i]:
                terms[ws[:i] + ws[i + 1 :]] = c
        return TensorElement._new(tags, terms)

    def map_slot(self, i: int, f: Callable[..., "TensorElement"]) -> "TensorElement":
        """Apply the word map ``f`` (:func:`lift_linear`) to the slots from i
        that carry its tags, extending linearly: ``f.word`` is handed their
        words, and every image expands into its slots in one dict.  The
        result has ``f.out_tags`` in place of those slots, so 0 maps to 0.
        Slots of other tags, and images of other tags, are refused.

        One term with coefficient 1, a basis element, maps to its image
        spliced into the term's other slots: a copy of the image's terms,
        which are exact and stay distinct, so nothing is summed or
        normalized and no caller holds the image itself."""
        j = i + len(f.tags)
        if self.tags[i:j] != f.tags:
            want = " (x) ".join(map(str, f.tags))
            raise ValueError(f"expected a {want} element, got {self.tags[i:j]}")
        word, out_tags = f.word, f.out_tags
        tags = self.tags[:i] + out_tags + self.tags[j:]
        basis = len(self.terms) == 1
        terms: dict[tuple[Word, ...], Coeff] = {}
        for ws, c in self.terms.items():
            image = word(*ws[i:j])
            if image.tags != out_tags:
                raise ValueError(f"image tag mismatch: {out_tags} vs {image.tags}")
            head, tail = ws[:i], ws[j:]
            # A basis element: its image's terms are exact and stay distinct spliced.
            if basis and c == 1:
                if not head and not tail:
                    return TensorElement._new(tags, dict(image.terms))
                return TensorElement._new(
                    tags, {head + iws + tail: ic for iws, ic in image.terms.items()}
                )
            for iws, ic in image.terms.items():
                key = head + iws + tail
                terms[key] = terms.get(key, 0) + c * ic
        return TensorElement._new(tags, _exact(terms))

    def sorted_terms(self) -> list[tuple[tuple[Word, ...], Coeff]]:
        return sorted(
            self.terms.items(),
            key=lambda it: tuple(
                (word_degree(tag, w), len(w), tuple(t.sort_key() for t in w))
                for tag, w in zip(self.tags, it[0])
            ),
        )

    def __repr__(self) -> str:
        return format_terms(self, "repr")


class Element(TensorElement):
    """Finite linear combination of basis words of one tagged algebra: a
    one-slot tensor, whose ``terms`` are keyed by one-slot tuples ``(word,)``.
    The constructor takes words: ``Element(tag, {word: c})``."""

    __slots__ = ()

    def __init__(self, tag: Tag, terms: dict[Word, Coeff] | None = None):
        super().__init__((tag,), {(w,): c for w, c in terms.items()} if terms else None)

    @property
    def tag(self) -> Tag:
        return self.tags[0]

    def counit(self) -> Coeff:
        """Coefficient of the empty word."""
        return self.terms.get(((),), 0)


def unit(tag: Tag) -> Element:
    return tensor_unit((tag,))


def zero(tag: Tag) -> Element:
    return TensorElement._new((tag,), {})


def from_word(tag: Tag, word: Iterable[Tree], coeff=1) -> Element:
    return TensorElement._new((tag,), _exact({(normalize_word(tag, word),): _coeff(coeff)}))


class _TreeWords(dict):
    """The basis words of single trees in the algebra of one tag, keyed by
    the tree; a tree's word is computed on its first read and kept.  A tree
    is never freed from the intern pool, so a table holds at most one entry
    per interned tree."""

    __slots__ = ("tag",)

    def __init__(self, tag: Tag):
        super().__init__()
        self.tag = tag

    def __missing__(self, t: Tree) -> Word:
        if self.tag.generators:
            w = normalize_word(self.tag, decompose_over(t))
        else:
            w = () if t is E else (t,)
        self[t] = w
        return w


# The word table of each tag: see :func:`tree_word`.
TREE_WORDS: dict[Tag, dict[Tree, Word]] = {tag: _TreeWords(tag) for tag in Tag}


def tree_word(tag: Tag, t: Tree) -> Word:
    """Basis word of a single tree: a one-letter word for the free algebras
    (the root tree is the empty word), the generator word of its
    over-factorization otherwise, the arguments read off its left spine.
    Each tag's words are read once per tree, from :data:`TREE_WORDS`."""
    return TREE_WORDS[tag][t]


def embed_tree(tag: Tag, t: Tree) -> Element:
    """Basis element of a single tree (see :func:`tree_word`)."""
    return TensorElement._new((tag,), {(tree_word(tag, t),): 1})


def word_as_tree(tag: Tag, word: Word) -> Tree:
    """Inverse of :func:`embed_tree` on generator words (the vector-space
    identification of the noncommutative lift with single trees)."""
    if not tag.generators:
        raise ValueError("only generator words correspond to single trees")
    return compose_over(word)


def tensor(xs: Sequence[TensorElement]) -> TensorElement:
    """Outer tensor product: the slots of each factor in turn."""
    terms: dict[tuple[Word, ...], Coeff] = {(): 1}
    for x in xs:
        terms = {ws + xws: c * k for ws, c in terms.items() for xws, k in x.terms.items()}
    return TensorElement._new(tuple(tag for x in xs for tag in x.tags), _exact(terms))


def tensor_unit(tags: Sequence[Tag]) -> TensorElement:
    return TensorElement._new(tuple(tags), {tuple(() for _ in tags): 1})


def multiplicative(unit: Callable[[], T], letter: Callable[[L], T]) -> Callable[[Sequence[L]], T]:
    """Extend a map on letters to words: the product of ``letter(t)`` over
    the letters in written order.  The fold starts from the first letter,
    so ``unit()`` is built only for the empty word; a one-letter word gives
    ``letter(t)`` itself, which callers only read: :meth:`TensorElement.map_slot`
    copies an image's terms into a dict of its own, on its one-term path too."""

    def word_fn(word: Sequence[L]) -> T:
        if not word:
            return unit()
        acc = letter(word[0])
        for t in word[1:]:
            acc = acc * letter(t)
        return acc

    return word_fn


def lift_linear(
    tags: tuple[Tag, ...], out_tags: tuple[Tag, ...], word_fn: Callable[..., TensorElement]
) -> Callable[[TensorElement], TensorElement]:
    """Extend a function of one word per slot linearly to whole elements of
    the tensor algebra of ``tags``, with images in that of ``out_tags``: the
    one place a function of words becomes a linear map, a *word map*, which
    keeps its arguments as ``tags``, ``out_tags`` and ``word``.  A call is
    :meth:`TensorElement.map_slot` on an element with exactly those slots."""

    def apply(x: TensorElement) -> TensorElement:
        if x.nslots != len(tags):
            raise ValueError(f"expected a {len(tags)}-slot element, got {x.tags}")
        return x.map_slot(0, apply)

    apply.tags, apply.out_tags, apply.word = tags, out_tags, word_fn
    return apply


def word_map(tags: tuple[Tag, ...], out_tags: tuple[Tag, ...]):
    """Decorator: :func:`lift_linear` of the decorated function of words,
    with the function's name and docstring."""
    return lambda word_fn: functools.wraps(word_fn)(lift_linear(tags, out_tags, word_fn))


# -- text -------------------------------------------------------------------


def format_terms(x: TensorElement, style: str) -> str:
    """The terms in sorted order, joined with `` + `` (`` - `` before a
    negative coefficient); the empty word prints as ``1``.  ``style`` is one
    of

    * ``repr``: slots joined with ``(x)`` and letters with ``*``; a term of
      several slots is bracketed, and a coefficient of -1 written ``-1*``;
    * ``ascii``: the same with no brackets, and -1 written ``-``;
    * ``latex``: ``ascii`` with ``\\otimes``, ``\\cdot`` and coefficients
      such as ``\\frac{1}{2}`` set before the term with a space.
    """
    if not x.terms:
        return "0"
    latex = style == "latex"
    otimes, dot = (" \\otimes ", " \\cdot ") if latex else (" (x) ", "*")
    parts = []
    for ws, c in x.sorted_terms():
        body = otimes.join(dot.join(render(t) for t in w) if w else "1" for w in ws)
        if style == "repr" and len(ws) != 1:
            body = f"[{body}]"
        if c == 1:
            parts.append(body)
        elif c == -1 and style != "repr":
            parts.append(f"-{body}")
        elif not latex:
            parts.append(f"{c}*{body}")
        elif c.denominator == 1:
            parts.append(f"{c} {body}")
        else:
            sign = "-" if c < 0 else ""
            parts.append(f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}} {body}")
    return " + ".join(parts).replace("+ -", "- ")


# -- JSON encoding ----------------------------------------------------------


def element_to_json(x: Element) -> dict:
    return {
        "tag": x.tags[0].value,
        "terms": [
            {"coeff": str(c), "word": [render(t) for t in w]}
            for (w,), c in x.sorted_terms()
        ],
    }


def tensor_to_json(x: TensorElement) -> dict:
    return {
        "tags": [t.value for t in x.tags],
        "terms": [
            {"coeff": str(c), "slots": [[render(t) for t in w] for w in ws]}
            for ws, c in x.sorted_terms()
        ],
    }
