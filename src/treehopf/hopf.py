"""Coproducts, coactions and antipodes on the tree algebras.

The pruning coproducts split a tree along all factorizations for the over /
under product; the free-monoid factorization and the structural recursion are
both implemented and cross-checked in the test suite.  The charge coproduct
and its coaction are computed tree-level (every slot entry stays a single
tree) and then read into the commutative algebra or its noncommutative lift.
"""

from __future__ import annotations

from typing import Callable

from .trees import Tree, E, graft, v_wrap, over, decompose_over, decompose_under, compose_over, compose_under
from .algebra import (
    MAPS,
    Element,
    Tag,
    TensorElement,
    Word,
    from_word,
    lift_linear,
    multiplicative,
    structure_map,
    tensor_unit,
    tree_word,
    unit,
)

TreePairs = dict[tuple[Tree, Tree], int]

# -- tree-level recursions --------------------------------------------------

_charge_cache: dict[Tree, TreePairs] = {}
_charge_small_cache: dict[Tree, TreePairs] = {}


def _pair_over(a: TreePairs, b: TreePairs) -> TreePairs:
    """Slotwise over product of two sums of tree pairs."""
    out: TreePairs = {}
    for (a1, a2), ca in a.items():
        for (b1, b2), cb in b.items():
            key = (over(a1, b1), over(a2, b2))
            out[key] = out.get(key, 0) + ca * cb
    return out


def charge_coproduct_tree(t: Tree) -> TreePairs:
    """Charge coproduct of a single tree, with single-tree slot entries."""
    got = _charge_cache.get(t)
    if got is None:
        if t is E:
            got = {(E, E): 1}
        elif t.left is E:
            got = dict(charge_coaction_tree(t))
            got[(E, t)] = got.get((E, t), 0) + 1
        else:
            got = _pair_over(
                charge_coproduct_tree(t.left),
                charge_coproduct_tree(v_wrap(t.right)),
            )
        _charge_cache[t] = got
    return got


def charge_coaction_tree(t: Tree) -> TreePairs:
    """Coaction partner of the charge coproduct, on a single tree."""
    got = _charge_small_cache.get(t)
    if got is None:
        if t is E:
            got = {(E, E): 1}
        elif t.left is E:
            got = {}
            for (a, b), c in charge_coaction_tree(t.right).items():
                key = (v_wrap(a), b)
                got[key] = got.get(key, 0) + c
        else:
            got = _pair_over(
                charge_coproduct_tree(t.left),
                charge_coaction_tree(v_wrap(t.right)),
            )
        _charge_small_cache[t] = got
    return got


def pruning_pairs_over(t: Tree) -> TreePairs:
    """All factorizations t = t1 / t2, via the free over-monoid."""
    us = decompose_over(t)
    return {(compose_over(us[:j]), compose_over(us[j:])): 1 for j in range(len(us) + 1)}


def pruning_pairs_under(t: Tree) -> TreePairs:
    """All factorizations t = t1 \\ t2, via the free under-monoid."""
    us = decompose_under(t)
    return {(compose_under(us[:j]), compose_under(us[j:])): 1 for j in range(len(us) + 1)}


# -- reading tree pairs into tensors ----------------------------------------


def read_pairs(tags: tuple[Tag, Tag], pairs: TreePairs) -> TensorElement:
    """A sum of tree pairs as a 2-slot tensor, each tree read as the basis
    word of its slot's algebra (:func:`tree_word`)."""
    ta, tb = tags
    terms: dict[tuple[Word, ...], int] = {}
    for (a, b), c in pairs.items():
        key = (tree_word(ta, a), tree_word(tb, b))
        terms[key] = terms.get(key, 0) + c
    return TensorElement._new(tags, terms)


def pairs_map(tags: tuple[Tag, Tag], pairs_fn: Callable[[Tree], TreePairs]):
    """The map on the algebra of ``tags[0]`` that sends a letter t to
    ``pairs_fn(t)`` read into ``tags``, extended multiplicatively to words
    and linearly to elements."""
    return lift_linear(
        tags[0],
        multiplicative(lambda: tensor_unit(tags), lambda t: read_pairs(tags, pairs_fn(t))),
    )


# -- pruning coproducts -----------------------------------------------------


@structure_map("delta-p-gamma", Tag.HGAMMA)
def delta_p_gamma(x: Element) -> TensorElement:
    """Pruning coproduct dual to the over product, on the photon algebra."""
    return pairs_map((Tag.HGAMMA, Tag.HGAMMA), pruning_pairs_over)(x)


@structure_map("delta-p-e", Tag.HE)
def delta_p_e(x: Element) -> TensorElement:
    """Pruning coproduct dual to the under product, on the electron algebra."""
    return pairs_map((Tag.HE, Tag.HE), pruning_pairs_under)(x)


def _delta_p_gamma_tree_rec(t: Tree) -> TreePairs:
    if t is E:
        return {(E, E): 1}
    out: TreePairs = {(t, E): 1}
    for (a, b), c in _delta_p_gamma_tree_rec(t.left).items():
        key = (a, graft(b, t.right))
        out[key] = out.get(key, 0) + c
    return out


def _delta_p_e_tree_rec(t: Tree) -> TreePairs:
    if t is E:
        return {(E, E): 1}
    out: TreePairs = {(E, t): 1}
    for (a, b), c in _delta_p_e_tree_rec(t.right).items():
        key = (graft(t.left, a), b)
        out[key] = out.get(key, 0) + c
    return out


def delta_p_gamma_recursive(x: Element) -> TensorElement:
    """Structural-recursion implementation, for cross-checking."""
    return pairs_map((Tag.HGAMMA, Tag.HGAMMA), _delta_p_gamma_tree_rec)(x)


def delta_p_e_recursive(x: Element) -> TensorElement:
    return pairs_map((Tag.HE, Tag.HE), _delta_p_e_tree_rec)(x)


# -- charge coproduct and coaction ------------------------------------------
# A letter u of the charge algebras is the generator V(u); its image is the
# tree-level coproduct or coaction of V(u), read into generator words.


@structure_map("delta-alpha", Tag.HALPHA)
def delta_alpha(x: Element) -> TensorElement:
    """Charge coproduct on the commutative charge algebra."""
    return pairs_map((Tag.HALPHA, Tag.HALPHA), lambda u: charge_coproduct_tree(v_wrap(u)))(x)


@structure_map("delta-small", Tag.HALPHA)
def delta_small(x: Element) -> TensorElement:
    """Charge coaction on the commutative charge algebra."""
    return pairs_map((Tag.HALPHA, Tag.HALPHA), lambda u: charge_coaction_tree(v_wrap(u)))(x)


@structure_map("delta-alpha-nc", Tag.HALPHA_NC)
def delta_alpha_nc(x: Element) -> TensorElement:
    """Charge coproduct on the noncommutative lift."""
    return pairs_map((Tag.HALPHA_NC, Tag.HALPHA_NC), lambda u: charge_coproduct_tree(v_wrap(u)))(x)


@structure_map("delta-small-nc", Tag.HALPHA_NC)
def delta_small_nc(x: Element) -> TensorElement:
    return pairs_map((Tag.HALPHA_NC, Tag.HALPHA_NC), lambda u: charge_coaction_tree(v_wrap(u)))(x)


# Name in MAPS of each tag's coproduct and antipode.
COPRODUCT_NAME = {
    Tag.HGAMMA: "delta-p-gamma",
    Tag.HE: "delta-p-e",
    Tag.HALPHA: "delta-alpha",
    Tag.HALPHA_NC: "delta-alpha-nc",
}
ANTIPODE_NAME = {
    Tag.HGAMMA: "antipode-p-gamma",
    Tag.HE: "antipode-p-e",
    Tag.HALPHA: "antipode-alpha",
    Tag.HALPHA_NC: "antipode-alpha-nc",
}


def abelianize(x: Element) -> Element:
    """Project the noncommutative lift onto the commutative charge algebra."""
    return lift_linear(Tag.HALPHA_NC, lambda w: from_word(Tag.HALPHA, w))(x)


# -- antipodes --------------------------------------------------------------

_antipode_letter_cache: dict[tuple[Tag, Tree], Element] = {}


def _antipode_word(tag: Tag, word: Word) -> Element:
    """Antipode of a basis word: the anti-morphism extension of the antipode
    on generators (for a commutative algebra this is also a morphism)."""
    return multiplicative(lambda: unit(tag), lambda t: _antipode_letter(tag, t))(word[::-1])


def _antipode_element(tag: Tag, x: Element) -> Element:
    return lift_linear(tag, lambda w: _antipode_word(tag, w))(x)


def _antipode_letter(tag: Tag, t: Tree) -> Element:
    """Antipode of a single generator, by the reduced-coproduct recursion
    S(g) = -g - sum S(g') g'' over the reduced coproduct of g."""
    key = (tag, t)
    got = _antipode_letter_cache.get(key)
    if got is None:
        gen = from_word(tag, (t,))
        # Always the registered coproduct, never a corrupted copy: this
        # cache outlives any one sweep.
        full = MAPS[COPRODUCT_NAME[tag]](gen)
        got = -gen
        for (w1, w2), c in full.terms.items():
            if not w1 or not w2:
                continue
            got = got - _antipode_word(tag, w1).scale(c) * from_word(tag, w2)
        _antipode_letter_cache[key] = got
    return got


@structure_map("antipode-p-e", Tag.HE)
def antipode_p_e(x: Element) -> Element:
    """Antipode of the electron propagator Hopf algebra."""
    return _antipode_element(Tag.HE, x)


@structure_map("antipode-p-gamma", Tag.HGAMMA)
def antipode_p_gamma(x: Element) -> Element:
    """Antipode of the photon propagator Hopf algebra."""
    return _antipode_element(Tag.HGAMMA, x)


@structure_map("antipode-alpha", Tag.HALPHA)
def antipode_alpha(x: Element) -> Element:
    """Antipode of the charge Hopf algebra."""
    return _antipode_element(Tag.HALPHA, x)


@structure_map("antipode-alpha-nc", Tag.HALPHA_NC)
def antipode_alpha_nc(x: Element) -> Element:
    """Antipode of the noncommutative lift, from the same recursion."""
    return _antipode_element(Tag.HALPHA_NC, x)
