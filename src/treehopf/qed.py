"""Renormalization coactions and the semidirect (smash) coproduct.

The photon / electron coactions send a tree into (propagator algebra) x
(charge algebra); the smash coproduct twists the tensor algebra of the charge
and electron algebras into one Hopf algebra, whose coaction on the electron
algebra is the three-slot electron renormalization coaction.  The composites
read their parts from the map set they are given, so a part damaged in that
set (``checks.corrupt_map``) reaches every composite built on it.
"""

from __future__ import annotations

from .trees import Tree, E, graft, over
from .algebra import (
    Coeff,
    Element,
    Tag,
    TensorElement,
    Word,
    composite_map,
    from_word,
    multiplicative,
    multiply_words,
    structure_map,
    tensor,
    tensor_unit,
    tree_word,
    word_map,
)
from .hopf import TreePairs, charge_coaction_tree, charge_coproduct_tree, pairs_map

# -- the coactions of the charge algebra on the propagator algebras ---------


@structure_map("delta-gamma-coaction")
@pairs_map(Tag.HGAMMA, Tag.HALPHA)
def delta_gamma_coaction(t: Tree) -> TreePairs:
    """Right coaction of the charge algebra on the photon algebra."""
    return charge_coaction_tree(t)


@structure_map("delta-e-coaction")
@pairs_map(Tag.HE, Tag.HALPHA)
def delta_e_coaction(t: Tree) -> TreePairs:
    """Right coaction of the charge algebra on the electron algebra."""
    return charge_coaction_tree(t)


_coaction_rec_cache: dict[Tree, TreePairs] = {}


def _coaction_tree_recursive(t: Tree) -> TreePairs:
    """Grafting recursion for the coaction on a single tree: for t = l v r,
    sum over the charge coproduct of l and the coaction of r of
    (l1 v r_left) (x) l2 / r_right."""
    got = _coaction_rec_cache.get(t)
    if got is None:
        if t is E:
            got = {(E, E): 1}
        else:
            got = {}
            for (l1, l2), cl in charge_coproduct_tree(t.left).items():
                for (re_, ra), cr in _coaction_tree_recursive(t.right).items():
                    key = (graft(l1, re_), over(l2, ra))
                    got[key] = got.get(key, 0) + cl * cr
        _coaction_rec_cache[t] = got
    return got


@pairs_map(Tag.HE, Tag.HALPHA)
def delta_e_coaction_recursive(t: Tree) -> TreePairs:
    """Independent implementation of the electron coaction, by the grafting
    recursion instead of the noncommutative-lift identification."""
    return _coaction_tree_recursive(t)


# -- sigma and the photon renormalization coaction --------------------------


@structure_map("sigma")
@word_map((Tag.HGAMMA,), (Tag.HALPHA,))
def sigma(word: Word) -> Element:
    """Algebra morphism from the photon algebra onto the charge algebra that
    multiplies the letters of a word with the over product."""
    # The charge image of a tree is the generator word of its over-factorization.
    return from_word(Tag.HALPHA, [u for t in word for u in tree_word(Tag.HALPHA, t)])


@composite_map("delta-gamma", (Tag.HGAMMA,), (Tag.HGAMMA, Tag.HALPHA))
def photon_renorm_coaction(maps, word: Word) -> TensorElement:
    """Photon renormalization coaction: coact on the first leg of the pruning
    coproduct, push the second through sigma, and multiply the charge slots."""
    # (p, p) -> (p, c, p) -> (p, c, c) -> multiply slots 1,2 into the charge slot
    out = maps["delta-p-gamma"].word(word).map_slot(0, maps["delta-gamma-coaction"])
    return out.map_slot(2, maps["sigma"]).slot_multiply(1, 2, 1)


# -- the smash coproduct ----------------------------------------------------

QED_TAGS = (Tag.HALPHA, Tag.HE)
_ERN_TAGS = (Tag.HE, Tag.HALPHA, Tag.HE)


@composite_map("qed-coproduct", QED_TAGS, QED_TAGS + QED_TAGS)
def qed_coproduct(maps, a: Word, b: Word) -> TensorElement:
    """Coproduct of the QED Hopf algebra (charge x electron), the smash
    coproduct; four slots out, grouped pairwise: (c, p) (x) (c, p)."""
    # a (x) b -> a1 (x) a2 (x) b_e (x) b_alpha (x) b2 -> (a1, b_e, a2*b_alpha, b2)
    out = tensor([maps["delta-alpha"].word(a), maps["delta-p-e"].word(b)])
    return out.map_slot(2, maps["delta-e-coaction"]).slot_multiply(1, 3, 2)


def qed_counit(ab: TensorElement) -> Coeff:
    if ab.tags != QED_TAGS:
        raise ValueError(f"expected a (Halpha, He) element, got {ab.tags}")
    return ab.terms.get(((), ()), 0)


@composite_map("qed-antipode", QED_TAGS, QED_TAGS)
def qed_antipode(maps, a: Word, b: Word) -> TensorElement:
    """Antipode of the QED Hopf algebra: S(a (x) b) twists the electron
    antipode of b through the coaction and the charge antipode."""
    # a (x) b -> S(a) (x) S(b)_e (x) S(S(b)_alpha) -> S(a) S(S(b)_alpha) (x) S(b)_e
    s_alpha = maps["antipode-alpha"]
    sb = maps["antipode-p-e"].word(b).map_slot(0, maps["delta-e-coaction"]).map_slot(1, s_alpha)
    return tensor([s_alpha.word(a), sb]).slot_multiply(0, 2, 0)


def qed_unit() -> TensorElement:
    return tensor_unit(QED_TAGS)


# -- the electron renormalization coaction ----------------------------------


@composite_map("delta-e", (Tag.HE,), _ERN_TAGS)
def electron_renorm_coaction(maps, word: Word) -> TensorElement:
    """Electron renormalization coaction: coact with the charge algebra on
    the left leg of the under-pruning coproduct.  Three slots out:
    (electron, charge, electron)."""
    return maps["delta-p-e"].word(word).map_slot(0, maps["delta-e-coaction"])


_ern_rec_cache: dict[Tree, TensorElement] = {}


def _ern_tree_recursive(t: Tree) -> TensorElement:
    """The electron renormalization coaction of a single tree by the
    grafting recursion on t = l v r, memoized per tree."""
    got = _ern_rec_cache.get(t)
    if got is None:
        if t is E:
            got = tensor_unit(_ERN_TAGS)
        else:
            terms: dict[tuple[Word, ...], int] = {((), (), (t,)): 1}
            sub = _ern_tree_recursive(t.right)
            for (l1, l2), cl in charge_coproduct_tree(t.left).items():
                w_l2 = tree_word(Tag.HALPHA, l2)
                for (w1, w2, w3), cs in sub.terms.items():
                    left = graft(l1, w1[0] if w1 else E)
                    mid = multiply_words(Tag.HALPHA, w_l2, w2)
                    key = (tree_word(Tag.HE, left), mid, w3)
                    terms[key] = terms.get(key, 0) + cl * cs
            got = TensorElement._new(_ERN_TAGS, terms)
        _ern_rec_cache[t] = got
    return got


_ern_word_recursive = multiplicative(lambda: tensor_unit(_ERN_TAGS), _ern_tree_recursive)


@word_map((Tag.HE,), _ERN_TAGS)
def electron_renorm_coaction_recursive(word: Word) -> TensorElement:
    """Independent grafting recursion for the electron renormalization
    coaction, cross-checked against the direct composite."""
    return _ern_word_recursive(word)
