"""Renormalization coactions and the semidirect (smash) coproduct.

The photon / electron coactions send a tree into (propagator algebra) x
(charge algebra); the smash coproduct twists the tensor algebra of the charge
and electron algebras into one Hopf algebra, whose coaction on the electron
algebra is the three-slot electron renormalization coaction.
"""

from __future__ import annotations

from typing import Callable

from .trees import Tree, E, decompose_over, graft
from .algebra import (
    Coeff,
    Element,
    Tag,
    TensorElement,
    Word,
    from_word,
    lift_linear,
    multiply_words,
    normalize_word,
    structure_map,
    tensor_unit,
)
from .hopf import (
    antipode_alpha,
    antipode_p_e,
    charge_coaction_tree,
    charge_coproduct_tree,
    delta_alpha,
    delta_p_e,
    delta_p_gamma,
)

# -- the coactions of the charge algebra on the propagator algebras ---------


def _coaction_tensor(tag: Tag, word: Word) -> TensorElement:
    out = tensor_unit((tag, Tag.HALPHA))
    for t in word:
        terms: dict[tuple[Word, ...], int] = {}
        for (a, b), c in charge_coaction_tree(t).items():
            key = (
                () if a is E else (a,),
                multiply_words(Tag.HALPHA, tuple(decompose_over(b)), ()),
            )
            terms[key] = terms.get(key, 0) + c
        out = out * TensorElement((tag, Tag.HALPHA), terms)
    return out


@structure_map("delta-gamma-coaction", Tag.HGAMMA)
def delta_gamma_coaction(x: Element) -> TensorElement:
    """Right coaction of the charge algebra on the photon algebra."""
    return lift_linear(Tag.HGAMMA, lambda w: _coaction_tensor(Tag.HGAMMA, w))(x)


@structure_map("delta-e-coaction", Tag.HE)
def delta_e_coaction(x: Element) -> TensorElement:
    """Right coaction of the charge algebra on the electron algebra."""
    return lift_linear(Tag.HE, lambda w: _coaction_tensor(Tag.HE, w))(x)


_coaction_rec_cache: dict[Tree, dict[tuple[Tree, Word], int]] = {}


def _coaction_tree_recursive(t: Tree) -> dict[tuple[Tree, Word], int]:
    """Grafting recursion for the coaction on a single tree: for t = l v r,
    sum over the charge coproduct of l and the coaction of r of
    (l1 v r_left) (x) l2 / r_right."""
    got = _coaction_rec_cache.get(t)
    if got is None:
        if t is E:
            got = {(E, ()): 1}
        else:
            got = {}
            for (l1, l2), cl in charge_coproduct_tree(t.left).items():
                for (re_, ra), cr in _coaction_tree_recursive(t.right).items():
                    left = graft(l1, re_)
                    right = multiply_words(
                        Tag.HALPHA, tuple(decompose_over(l2)), ra
                    )
                    key = (left, right)
                    got[key] = got.get(key, 0) + cl * cr
        _coaction_rec_cache[t] = got
    return got


def delta_e_coaction_recursive(x: Element) -> TensorElement:
    """Independent implementation of the electron coaction, by the grafting
    recursion instead of the noncommutative-lift identification."""

    def word_fn(word: Word) -> TensorElement:
        out = tensor_unit((Tag.HE, Tag.HALPHA))
        for t in word:
            terms = {
                ((() if a is E else (a,)), b): c
                for (a, b), c in _coaction_tree_recursive(t).items()
            }
            out = out * TensorElement((Tag.HE, Tag.HALPHA), terms)
        return out

    return lift_linear(Tag.HE, word_fn)(x)


# -- sigma and the photon renormalization coaction --------------------------


@structure_map("sigma", Tag.HGAMMA)
def sigma(x: Element) -> Element:
    """Algebra morphism from the photon algebra onto the charge algebra that
    multiplies the letters of a word with the over product."""
    if x.tag is not Tag.HGAMMA:
        raise ValueError("sigma is defined on the photon algebra")
    terms: dict[Word, Coeff] = {}
    for w, c in x.terms.items():
        # The charge image of a tree is its over-factorization, one word.
        v = normalize_word(Tag.HALPHA, [u for t in w for u in decompose_over(t)])
        terms[v] = terms.get(v, 0) + c
    return Element._new(Tag.HALPHA, terms)


def delta_sigma(
    x: Element,
    coaction: Callable[[Element], TensorElement],
    sigma_map: Callable[[Element], Element],
    delta_p: Callable[[Element], TensorElement],
) -> TensorElement:
    """Generic twisted coaction: apply the pruning coproduct, coact on the
    first leg, push the second leg through sigma, and multiply the two
    charge-algebra slots together."""
    spread = delta_p(x)  # (p, p)
    spread = spread.map_slot(0, lambda w: coaction(from_word(spread.tags[0], w)))
    # (p, c, p) -> (p, c, c) -> multiply slots 1,2 into final charge slot
    spread = spread.map_slot(2, lambda w: sigma_map(from_word(x.tag, w)))
    return spread.slot_multiply(1, 2, 1)


@structure_map("delta-gamma", Tag.HGAMMA)
def photon_renorm_coaction(x: Element) -> TensorElement:
    """Photon renormalization coaction on the photon algebra."""
    return delta_sigma(x, delta_gamma_coaction, sigma, delta_p_gamma)


# -- the smash coproduct ----------------------------------------------------


def semidirect_coproduct_generic(
    ab: TensorElement,
    delta_c: Callable[[Element], TensorElement],
    delta_p: Callable[[Element], TensorElement],
    coaction: Callable[[Element], TensorElement],
) -> TensorElement:
    """Smash coproduct of a 2-slot (charge, propagator) element; the output
    has four slots grouped pairwise: (c, p) (x) (c, p)."""
    if ab.nslots != 2:
        raise ValueError("expected a 2-slot element of the smash algebra")
    tag_c, tag_p = ab.tags
    # a1 (x) a2 (x) b -> a1 (x) a2 (x) b_e (x) b_alpha (x) b2
    out = ab.map_slot(0, lambda w: delta_c(from_word(tag_c, w)))
    out = out.map_slot(2, lambda w: delta_p(from_word(tag_p, w)))
    out = out.map_slot(2, lambda w: coaction(from_word(tag_p, w)))
    # slots: a1, a2, b_e, b_alpha, b2 -> (a1, b_e, a2*b_alpha, b2)
    out = out.slot_multiply(1, 3, 2)
    return out


@structure_map("qed-coproduct", Tag.HALPHA, Tag.HE)
def qed_coproduct(ab: TensorElement) -> TensorElement:
    """Coproduct of the QED Hopf algebra (charge x electron), 4 slots out."""
    if ab.tags != (Tag.HALPHA, Tag.HE):
        raise ValueError("expected a (Halpha, He) element")
    return semidirect_coproduct_generic(ab, delta_alpha, delta_p_e, delta_e_coaction)


def qed_counit(ab: TensorElement) -> Coeff:
    if ab.nslots != 2:
        raise ValueError("expected a 2-slot element")
    return ab.terms.get(((), ()), 0)


@structure_map("qed-antipode", Tag.HALPHA, Tag.HE)
def qed_antipode(ab: TensorElement) -> TensorElement:
    """Antipode of the QED Hopf algebra: S(a (x) b) twists the electron
    antipode of b through the coaction and the charge antipode."""
    if ab.tags != (Tag.HALPHA, Tag.HE):
        raise ValueError("expected a (Halpha, He) element")
    terms: dict[tuple[Word, ...], Coeff] = {}
    for (wa, wb), c in ab.terms.items():
        sa = antipode_alpha(from_word(Tag.HALPHA, wa))
        sb = delta_e_coaction(antipode_p_e(from_word(Tag.HE, wb)))  # (He, Halpha)
        sb = sb.map_slot(1, lambda w: antipode_alpha(from_word(Tag.HALPHA, w)))
        sb = sb.swap_slots(0, 1)  # (Halpha, He)
        piece = TensorElement._new(
            (Tag.HALPHA, Tag.HE), {(w, ()): k for w, k in sa.terms.items()}
        ) * sb
        for ws, k in piece.terms.items():
            terms[ws] = terms.get(ws, 0) + c * k
    return TensorElement._new((Tag.HALPHA, Tag.HE), terms)


def qed_unit() -> TensorElement:
    return tensor_unit((Tag.HALPHA, Tag.HE))


# -- the electron renormalization coaction ----------------------------------


@structure_map("delta-e", Tag.HE)
def electron_renorm_coaction(x: Element) -> TensorElement:
    """Electron renormalization coaction: coact with the charge algebra on
    the left leg of the under-pruning coproduct.  Three slots out:
    (electron, charge, electron)."""
    out = delta_p_e(x)
    return out.map_slot(0, lambda w: delta_e_coaction(from_word(Tag.HE, w)))


_ern_rec_cache: dict[Tree, TensorElement] = {}

_ERN_TAGS = (Tag.HE, Tag.HALPHA, Tag.HE)


def electron_renorm_coaction_recursive(x: Element) -> TensorElement:
    """Independent grafting recursion for the electron renormalization
    coaction, cross-checked against the direct composite."""

    def tree_fn(t: Tree) -> TensorElement:
        got = _ern_rec_cache.get(t)
        if got is None:
            if t is E:
                got = tensor_unit(_ERN_TAGS)
            else:
                terms: dict[tuple[Word, ...], int] = {((), (), (t,)): 1}
                sub = tree_fn(t.right)
                for (l1, l2), cl in charge_coproduct_tree(t.left).items():
                    for (w1, w2, w3), cs in sub.terms.items():
                        s1 = E if not w1 else w1[0]
                        left = graft(l1, s1)
                        mid = multiply_words(
                            Tag.HALPHA, tuple(decompose_over(l2)), w2
                        )
                        key = ((() if left is E else (left,)), mid, w3)
                        terms[key] = terms.get(key, 0) + cl * cs
                got = TensorElement(_ERN_TAGS, terms)
            _ern_rec_cache[t] = got
        return got

    def word_fn(word: Word) -> TensorElement:
        out = tensor_unit(_ERN_TAGS)
        for t in word:
            out = out * tree_fn(t)
        return out

    return lift_linear(Tag.HE, word_fn)(x)
