"""Pruning coproducts, charge coproduct/coaction, and antipodes.

Expected tensors for small trees are frozen by hand; structural laws are
swept over basis ranges and cross-checked against the independent
factorization-based implementations.
"""

import itertools
import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

import frozen_tables

from treehopf.trees import (
    E,
    Y,
    DEUXUN,
    DEUXDEUX,
    TROISUN,
    TROISDEUX,
    TROISTROIS,
    TROISQUATRE,
    TROISCINQ,
    Tree,
    all_trees_up_to,
    compose_over,
    compose_under,
    decompose_over,
    decompose_under,
    enumerate_trees,
    graft,
    over,
    under,
)
from treehopf.algebra import MAPS, Element, Tag, TensorElement, Word, embed_tree, from_word, tensor, tensor_unit, unit, word_map
from treehopf import hopf
from treehopf.checks import basis_elements, basis_words, corrupt_map, run_suite


def he(t):
    return embed_tree(Tag.HE, t)


def hg(t):
    return embed_tree(Tag.HGAMMA, t)


def ha(t):
    return embed_tree(Tag.HALPHA, t)


def tt(tag, *trees):
    return tensor([embed_tree(tag, t) for t in trees])


def swapped(d: TensorElement) -> TensorElement:
    """A two-slot tensor with its slots exchanged."""
    return TensorElement(d.tags[::-1], {(w2, w1): c for (w1, w2), c in d.terms.items()})


class TestPruningPairsOffTheSpine:
    """The pairs read off the spine are the free-monoid factorizations,
    item for item and in the same order."""

    def test_over_matches_the_composed_factorizations(self):
        for t in all_trees_up_to(8):
            us = decompose_over(t)
            want = [((compose_over(us[:j]), compose_over(us[j:])), 1) for j in range(len(us) + 1)]
            assert list(hopf.pruning_pairs_over(t).items()) == want

    def test_under_matches_the_composed_factorizations(self):
        for t in all_trees_up_to(8):
            us = decompose_under(t)
            want = [((compose_under(us[:j]), compose_under(us[j:])), 1) for j in range(len(us) + 1)]
            assert list(hopf.pruning_pairs_under(t).items()) == want

    def test_deep_combs(self):
        # The spines are walked, not recursed: combs deeper than the default
        # recursion limit of 1000 split too.
        n = 1200
        right = left = E
        for _ in range(n):
            right, left = graft(E, right), graft(left, E)
        assert len(hopf.pruning_pairs_under(right)) == n + 1
        assert len(hopf.pruning_pairs_over(left)) == n + 1
        assert list(hopf.pruning_pairs_under(left)) == [(E, left), (left, E)]
        assert list(hopf.pruning_pairs_over(right)) == [(E, right), (right, E)]


class TestPruningUnder:
    def test_root(self):
        assert hopf.delta_p_e(unit(Tag.HE)) == tt(Tag.HE, E, E)

    def test_single_vertex(self):
        assert hopf.delta_p_e(he(Y)) == tt(Tag.HE, E, Y) + tt(Tag.HE, Y, E)

    def test_sums_over_under_factorizations(self):
        for t in all_trees_up_to(5):
            got = hopf.delta_p_e(he(t))
            expect = None
            for t1, t2 in hopf.pruning_pairs_under(t):
                piece = tt(Tag.HE, t1, t2)
                expect = piece if expect is None else expect + piece
            assert got == expect

    def test_factorization_pairs_multiply_back(self):
        for t in all_trees_up_to(6):
            for t1, t2 in hopf.pruning_pairs_under(t):
                assert under(t1, t2) is t

    def test_term_count_is_under_length_plus_one(self):
        for t in all_trees_up_to(6):
            got = len(hopf.delta_p_e(he(t)).terms)
            assert got == len(decompose_under(t)) + 1

    def test_not_cocommutative(self):
        witness = [
            t
            for t in all_trees_up_to(3)
            if hopf.delta_p_e(he(t)) != swapped(hopf.delta_p_e(he(t)))
        ]
        assert witness  # e.g. any tree with an asymmetric factorization set


class TestPruningOver:
    def test_single_vertex(self):
        assert hopf.delta_p_gamma(hg(Y)) == tt(Tag.HGAMMA, E, Y) + tt(
            Tag.HGAMMA, Y, E
        )

    def test_term_count_is_over_length_plus_one(self):
        for t in all_trees_up_to(6):
            got = len(hopf.delta_p_gamma(hg(t)).terms)
            assert got == len(decompose_over(t)) + 1

    def test_factorization_pairs_multiply_back(self):
        for t in all_trees_up_to(6):
            for t1, t2 in hopf.pruning_pairs_over(t):
                assert over(t1, t2) is t

    def test_level_sum_is_bijective(self):
        # summing the coproduct over one whole level splits as the product of
        # level sums: the under/over factorizations pair levels bijectively
        for delta, pairs in (
            (hopf.delta_p_e, hopf.pruning_pairs_under),
            (hopf.delta_p_gamma, hopf.pruning_pairs_over),
        ):
            for n in range(6):
                count = sum(len(pairs(t)) for t in enumerate_trees(n))
                from treehopf.trees import catalan

                assert count == sum(
                    catalan(j) * catalan(n - j) for j in range(n + 1)
                )


class TestCrossChecks:
    def test_recursive_equals_factorization(self):
        for t in all_trees_up_to(6):
            assert hopf.delta_p_gamma(hg(t)) == hopf.delta_p_gamma_recursive(hg(t))
            assert hopf.delta_p_e(he(t)) == hopf.delta_p_e_recursive(he(t))

    def test_multiplicativity(self):
        for x in basis_elements(Tag.HE, 4):
            for y in basis_elements(Tag.HE, 2):
                assert hopf.delta_p_e(x * y) == hopf.delta_p_e(x) * hopf.delta_p_e(y)


class TestChargeCoproduct:
    def test_generator_table(self):
        assert hopf.delta_alpha(ha(Y)) == tt(Tag.HALPHA, Y, E) + tt(Tag.HALPHA, E, Y)
        assert hopf.delta_alpha(ha(DEUXDEUX)) == tt(Tag.HALPHA, DEUXDEUX, E) + tt(
            Tag.HALPHA, E, DEUXDEUX
        )
        assert hopf.delta_alpha(ha(TROISQUATRE)) == (
            tt(Tag.HALPHA, TROISQUATRE, E)
            + tt(Tag.HALPHA, DEUXDEUX, Y)
            + tt(Tag.HALPHA, E, TROISQUATRE)
        )
        assert hopf.delta_alpha(ha(TROISCINQ)) == tt(
            Tag.HALPHA, TROISCINQ, E
        ) + tt(Tag.HALPHA, E, TROISCINQ)

    def test_coaction_table(self):
        assert hopf.delta_small(ha(Y)) == tt(Tag.HALPHA, Y, E)
        assert hopf.delta_small(ha(DEUXDEUX)) == tt(Tag.HALPHA, DEUXDEUX, E)
        assert hopf.delta_small(ha(TROISQUATRE)) == tt(
            Tag.HALPHA, TROISQUATRE, E
        ) + tt(Tag.HALPHA, DEUXDEUX, Y)
        assert hopf.delta_small(ha(TROISCINQ)) == tt(Tag.HALPHA, TROISCINQ, E)

    def test_coproduct_splits_as_unit_plus_coaction(self):
        # on generators: full coproduct = 1 (x) g + coaction part
        for u in all_trees_up_to(3):
            g = from_word(Tag.HALPHA, (u,))
            expect = tensor([unit(Tag.HALPHA), g]) + hopf.delta_small(g)
            assert hopf.delta_alpha(g) == expect

    def test_grading(self):
        for t in all_trees_up_to(4):
            x = ha(t)
            deg = sum(u.order + 1 for u in decompose_over(t))
            for (w1, w2), _ in hopf.delta_alpha(x).terms.items():
                d1 = sum(u.order + 1 for u in w1)
                d2 = sum(u.order + 1 for u in w2)
                assert d1 + d2 == deg

    def test_not_cocommutative(self):
        # commutative as an algebra, but the coproduct is not symmetric:
        # e.g. the third generator has a deuxdeux (x) Y term with no mirror
        d = hopf.delta_alpha(ha(TROISQUATRE))
        assert d != swapped(d)
        nc = [
            t
            for t in all_trees_up_to(3)
            if hopf.delta_alpha_nc(embed_tree(Tag.HALPHA_NC, t))
            != swapped(hopf.delta_alpha_nc(embed_tree(Tag.HALPHA_NC, t)))
        ]
        assert nc

    def test_abelianization_intertwines_lift(self):
        @word_map((Tag.HALPHA_NC,), (Tag.HALPHA,))
        def abelianize(word: Word) -> Element:
            # Project the noncommutative lift onto the commutative algebra.
            return from_word(Tag.HALPHA, word)

        for t in all_trees_up_to(4):
            lifted = hopf.delta_alpha_nc(embed_tree(Tag.HALPHA_NC, t))
            dropped = lifted.map_slot(0, abelianize).map_slot(1, abelianize)
            assert dropped == hopf.delta_alpha(ha(t))


class TestAntipodes:
    def test_under_antipode_table(self):
        S = lambda t: hopf.antipode_p_e(he(t))
        assert S(Y) == -he(Y)
        assert S(DEUXUN) == -he(DEUXUN)
        assert S(DEUXDEUX) == -he(DEUXDEUX) + he(Y) * he(Y)
        assert S(TROISCINQ) == (
            -he(TROISCINQ)
            + he(DEUXDEUX) * he(Y)
            + he(Y) * he(DEUXDEUX)
            - he(Y) * he(Y) * he(Y)
        )
        assert S(TROISQUATRE) == -he(TROISQUATRE) + he(Y) * he(DEUXUN)

    def test_antipode_axiom_spot(self):
        for tag, delta, antipode in (
            (Tag.HE, hopf.delta_p_e, hopf.antipode_p_e),
            (Tag.HGAMMA, hopf.delta_p_gamma, hopf.antipode_p_gamma),
            (Tag.HALPHA, hopf.delta_alpha, hopf.antipode_alpha),
            (Tag.HALPHA_NC, hopf.delta_alpha_nc, hopf.antipode_alpha_nc),
        ):
            for x in basis_elements(tag, 3):
                d = delta(x)
                conv = d.map_slot(0, antipode).slot_multiply(0, 1, 0)
                assert conv == unit(tag).scale(x.counit())

    def test_under_antipode_not_involutive(self):
        broken = [
            x
            for x in basis_elements(Tag.HE, 5)
            if hopf.antipode_p_e(hopf.antipode_p_e(x)) != x
        ]
        assert broken

    def test_antipode_is_antimorphism(self):
        for x in basis_elements(Tag.HE, 3):
            for y in basis_elements(Tag.HE, 2):
                assert hopf.antipode_p_e(x * y) == hopf.antipode_p_e(
                    y
                ) * hopf.antipode_p_e(x)

    def test_charge_antipode_grading_sign(self):
        # leading term of S(g) is -g for every generator
        for u in all_trees_up_to(3):
            g = from_word(Tag.HALPHA, (u,))
            s = hopf.antipode_alpha(g)
            assert s.terms.get(((u,),)) == Fraction(-1)

    def test_letter_cache_is_filled_from_the_registered_maps(self, monkeypatch):
        # A sweep over a damaged map set fills the letter cache first, and
        # the cache outlives it: the letters must read only MAPS.
        monkeypatch.setattr(hopf, "_antipode_letter_cache", {})
        for name in ("delta-p-e", "antipode-p-e"):
            assert not all(r.ok for r in run_suite("antipode", maps=corrupt_map(MAPS, name))), name
        assert hopf._antipode_letter_cache
        for t, expect in frozen_tables.UNDER_ANTIPODE.items():
            assert hopf.antipode_p_e(he(t)) == expect, t
        assert all(r.ok for r in run_suite("antipode"))

    @pytest.mark.parametrize("tag", list(Tag), ids=lambda tag: tag.antipode)
    def test_refuses_elements_of_another_algebra(self, tag):
        antipode = MAPS[tag.antipode]
        for other in Tag:
            if other is not tag:
                with pytest.raises(ValueError, match=f"expected a {tag} element"):
                    antipode(from_word(other, (Y,)))


def antipode_sum_law(maps, tag: Tag, n: int) -> bool:
    """Sum of S(t) over the trees t of order n equals the sum of
    (-1)^k t1...tk over the words of k trees of total order n: summed over
    one order, the antipode inverts the series 1 + sum of all trees."""
    antipode = maps[tag.antipode]
    lhs = reduce(operator.add, (antipode(embed_tree(tag, t)) for t in enumerate_trees(n)))
    words = [w for w in basis_words(tag, n) if sum(t.order for t in w) == n]
    return lhs == Element(tag, {w: (-1) ** len(w) for w in words})


class TestAntipodeSumLaw:
    """The character-free form of the antipode's inverse law on the free
    algebras, with no character and no series."""

    @pytest.mark.parametrize("tag", [Tag.HE, Tag.HGAMMA])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_holds(self, tag, n):
        assert antipode_sum_law(MAPS, tag, n)

    @pytest.mark.parametrize("tag", [Tag.HE, Tag.HGAMMA])
    def test_corrupted_antipode_breaks_it_at_every_order(self, tag):
        maps = corrupt_map(MAPS, tag.antipode)
        assert not any(antipode_sum_law(maps, tag, n) for n in range(1, 6))


def comb(n: int) -> Tree:
    """The n-deep right comb (e v (e v ... e))."""
    return E if n == 0 else graft(E, comb(n - 1))


def compositions(n: int):
    """The 2^(n-1) compositions (k1, ..., km) of n >= 1, one per set of cut
    points between the n units."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, k = [], 1
        for cut in cuts:
            if cut:
                parts.append(k)
                k = 0
            k += 1
        yield parts + [k]


def comb_antipode(n: int) -> Element:
    """S(c_n) in H_e as the sum of (-1)^m c_k1...c_km over the compositions
    (k1, ..., km) of n: the under-pruning coproduct splits a comb into two
    combs, so the antipode recursion reads like that of 1 / (1 + x)."""
    return Element(Tag.HE, {tuple(comb(k) for k in ks): (-1) ** len(ks) for ks in compositions(n)})


class TestCombAntipode:
    """A closed form for the antipode of a comb, an exact second route."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_closed_form(self, n):
        assert hopf.antipode_p_e(he(comb(n))) == comb_antipode(n)
        assert len(comb_antipode(n).terms) == 2 ** (n - 1)

    def test_corrupted_antipode_breaks_it(self):
        damaged = corrupt_map(MAPS, "antipode-p-e")["antipode-p-e"]
        assert all(damaged(he(comb(n))) != comb_antipode(n) for n in range(1, 8))


class TestMultiplicativeExtension:
    """Second route for every map built on ``algebra.multiplicative``: the
    image of a basis word is the product of the letter images folded from
    the unit, the old definition; antipodes multiply in reversed order."""

    COPRODUCTS = (
        (Tag.HGAMMA, hopf.delta_p_gamma),
        (Tag.HE, hopf.delta_p_e),
        (Tag.HGAMMA, hopf.delta_p_gamma_recursive),
        (Tag.HE, hopf.delta_p_e_recursive),
        (Tag.HALPHA, hopf.delta_alpha),
        (Tag.HALPHA, hopf.delta_small),
        (Tag.HALPHA_NC, hopf.delta_alpha_nc),
        (Tag.HALPHA_NC, hopf.delta_small_nc),
    )
    ANTIPODES = (
        (Tag.HGAMMA, hopf.antipode_p_gamma),
        (Tag.HE, hopf.antipode_p_e),
        (Tag.HALPHA, hopf.antipode_alpha),
        (Tag.HALPHA_NC, hopf.antipode_alpha_nc),
    )

    def test_coproducts_fold_letter_images_from_the_unit(self):
        for tag, delta in self.COPRODUCTS:
            for w in basis_words(tag, 4):
                letters = [delta(from_word(tag, (t,))) for t in w]
                expect = reduce(operator.mul, letters, tensor_unit((tag, tag)))
                assert delta(from_word(tag, w)) == expect, (delta.__name__, w)

    def test_antipodes_fold_reversed_letter_images_from_the_unit(self):
        for tag, antipode in self.ANTIPODES:
            for w in basis_words(tag, 4):
                letters = [antipode(from_word(tag, (t,))) for t in reversed(w)]
                expect = reduce(operator.mul, letters, unit(tag))
                assert antipode(from_word(tag, w)) == expect, (antipode.__name__, w)

    def test_antipode_reverses_a_two_letter_word(self):
        S = hopf.antipode_p_e
        a, b = he(Y), he(DEUXDEUX)
        assert S(a * b) == S(b) * S(a)
        assert S(a * b) != S(a) * S(b)

    def test_antipode_of_a_letter_is_not_the_cached_value(self):
        for t in (Y, DEUXDEUX, TROISCINQ):
            first = hopf.antipode_p_e(he(t))
            assert first is not hopf._antipode_letter_cache[(Tag.HE, t)]
            assert first.terms is not hopf._antipode_letter_cache[(Tag.HE, t)].terms
            expect = Element(Tag.HE, {w: c for (w,), c in first.terms.items()})
            first.terms.clear()
            first.terms[((Y, Y, Y, Y),)] = 7
            assert hopf.antipode_p_e(he(t)) == expect
