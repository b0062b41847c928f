"""Coproducts, coactions and antipodes on the tree algebras.

The pruning coproducts split a tree along all factorizations for the over /
under product; the free-monoid factorization and the structural recursion are
both implemented and cross-checked in the test suite.  The factorizations are
read off the spine: every prefix of an over-factorization is a node of the
tree's left spine and every suffix of an under-factorization a node of its
right spine, so only the other factor is grafted.  The charge coproduct and
its coaction are computed tree-level (every slot entry stays a single tree)
and then read into the commutative algebra or its noncommutative lift, each
tree through its tag's word table (:data:`~treehopf.algebra.TREE_WORDS`).
"""

from __future__ import annotations

import functools
from typing import Callable

from .trees import Tree, E, graft, v_wrap, over
from .algebra import (
    MAPS,
    TREE_WORDS,
    Element,
    Tag,
    TensorElement,
    Word,
    from_word,
    lift_linear,
    multiplicative,
    structure_map,
    tensor_unit,
    unit,
    word_map,
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
    """All factorizations t = t1 / t2, via the free over-monoid, by
    ascending length of t1.  With t = V(u_1)/.../V(u_k), each prefix
    t1 = V(u_1)/.../V(u_j) is a node of the left spine of t, so only the
    suffix t2 = V(u_{j+1})/.../V(u_k) is grafted."""
    spine = [t]
    while t is not E:
        t = t.left
        spine.append(t)
    spine.reverse()  # spine[j] = V(u_1)/.../V(u_j), whose right subtree is u_j
    out: TreePairs = {}
    for j, t1 in enumerate(spine):
        t2 = E
        for s in spine[j + 1 :]:
            t2 = graft(t2, s.right)
        out[(t1, t2)] = 1
    return out


def pruning_pairs_under(t: Tree) -> TreePairs:
    """All factorizations t = t1 \\ t2, via the free under-monoid, by
    ascending length of t1.  With t = (u_1 v e)\\...\\(u_k v e), each suffix
    t2 = (u_{j+1} v e)\\...\\(u_k v e) is a node of the right spine of t, so
    only the prefix t1 = (u_1 v e)\\...\\(u_j v e) is grafted."""
    spine = [t]
    while t is not E:
        t = t.right
        spine.append(t)
    # spine[j] is the suffix after j letters; its left subtree is u_{j+1}.
    out: TreePairs = {}
    for j, t2 in enumerate(spine):
        t1 = E
        for s in reversed(spine[:j]):
            t1 = graft(s.left, t1)
        out[(t1, t2)] = 1
    return out


# -- reading tree pairs into tensors ----------------------------------------


def read_pairs(tags: tuple[Tag, Tag], pairs: TreePairs) -> TensorElement:
    """A sum of tree pairs as a 2-slot tensor, each tree read as the basis
    word of its slot's algebra from that algebra's word table
    (:func:`~treehopf.algebra.tree_word`)."""
    wa, wb = TREE_WORDS[tags[0]], TREE_WORDS[tags[1]]
    terms: dict[tuple[Word, ...], int] = {}
    for (a, b), c in pairs.items():
        key = (wa[a], wb[b])
        terms[key] = terms.get(key, 0) + c
    return TensorElement._new(tags, terms)


def pairs_map(*tags: Tag):
    """Decorator: the word map on the algebra of ``tags[0]`` that sends a
    letter t to the decorated function's tree pairs of t read into ``tags``,
    multiplicatively on words; it keeps the function's name and docstring."""

    def lift(pairs_fn: Callable[[Tree], TreePairs]):
        word = multiplicative(lambda: tensor_unit(tags), lambda t: read_pairs(tags, pairs_fn(t)))
        return functools.wraps(pairs_fn)(lift_linear(tags[:1], word))

    return lift


# -- pruning coproducts -----------------------------------------------------


@structure_map("delta-p-gamma")
@pairs_map(Tag.HGAMMA, Tag.HGAMMA)
def delta_p_gamma(t: Tree) -> TreePairs:
    """Pruning coproduct dual to the over product, on the photon algebra."""
    return pruning_pairs_over(t)


@structure_map("delta-p-e")
@pairs_map(Tag.HE, Tag.HE)
def delta_p_e(t: Tree) -> TreePairs:
    """Pruning coproduct dual to the under product, on the electron algebra."""
    return pruning_pairs_under(t)


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


@pairs_map(Tag.HGAMMA, Tag.HGAMMA)
def delta_p_gamma_recursive(t: Tree) -> TreePairs:
    """Structural-recursion implementation, for cross-checking."""
    return _delta_p_gamma_tree_rec(t)


@pairs_map(Tag.HE, Tag.HE)
def delta_p_e_recursive(t: Tree) -> TreePairs:
    return _delta_p_e_tree_rec(t)


# -- charge coproduct and coaction ------------------------------------------
# A letter u of the charge algebras is the generator V(u); its image is the
# tree-level coproduct or coaction of V(u), read into generator words.


@structure_map("delta-alpha")
@pairs_map(Tag.HALPHA, Tag.HALPHA)
def delta_alpha(u: Tree) -> TreePairs:
    """Charge coproduct on the commutative charge algebra."""
    return charge_coproduct_tree(v_wrap(u))


@structure_map("delta-small")
@pairs_map(Tag.HALPHA, Tag.HALPHA)
def delta_small(u: Tree) -> TreePairs:
    """Charge coaction on the commutative charge algebra."""
    return charge_coaction_tree(v_wrap(u))


@structure_map("delta-alpha-nc")
@pairs_map(Tag.HALPHA_NC, Tag.HALPHA_NC)
def delta_alpha_nc(u: Tree) -> TreePairs:
    """Charge coproduct on the noncommutative lift."""
    return charge_coproduct_tree(v_wrap(u))


@structure_map("delta-small-nc")
@pairs_map(Tag.HALPHA_NC, Tag.HALPHA_NC)
def delta_small_nc(u: Tree) -> TreePairs:
    """Charge coaction on the noncommutative lift."""
    return charge_coaction_tree(v_wrap(u))


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


# -- antipodes --------------------------------------------------------------

_antipode_letter_cache: dict[tuple[Tag, Tree], Element] = {}


def _antipode_on_words(tag: Tag) -> Callable[[Word], Element]:
    """Antipode on the basis words of ``tag``: the anti-morphism extension of
    the antipode on generators (for a commutative algebra also a morphism)."""
    letters = multiplicative(lambda: unit(tag), lambda t: _antipode_letter(tag, t))
    return lambda word: letters(word[::-1])


_ANTIPODE_WORD = {tag: _antipode_on_words(tag) for tag in Tag}


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
            got = got - _ANTIPODE_WORD[tag](w1).scale(c) * from_word(tag, w2)
        _antipode_letter_cache[key] = got
    return got


@structure_map("antipode-p-e")
@word_map(Tag.HE)
def antipode_p_e(word: Word) -> Element:
    """Antipode of the electron propagator Hopf algebra."""
    return _ANTIPODE_WORD[Tag.HE](word)


@structure_map("antipode-p-gamma")
@word_map(Tag.HGAMMA)
def antipode_p_gamma(word: Word) -> Element:
    """Antipode of the photon propagator Hopf algebra."""
    return _ANTIPODE_WORD[Tag.HGAMMA](word)


@structure_map("antipode-alpha")
@word_map(Tag.HALPHA)
def antipode_alpha(word: Word) -> Element:
    """Antipode of the charge Hopf algebra."""
    return _ANTIPODE_WORD[Tag.HALPHA](word)


@structure_map("antipode-alpha-nc")
@word_map(Tag.HALPHA_NC)
def antipode_alpha_nc(word: Word) -> Element:
    """Antipode of the noncommutative lift, from the same recursion."""
    return _ANTIPODE_WORD[Tag.HALPHA_NC](word)
