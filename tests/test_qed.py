"""Renormalization coactions, the smash coproduct, and their laws.

The full electron and photon coaction tables for all nine trees of order
at most three are frozen by hand, coefficients included.
"""

import operator
from fractions import Fraction
from functools import reduce

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
    all_trees_up_to,
)
from treehopf.algebra import Tag, TensorElement, embed_tree, from_word, tensor, tensor_unit, unit
from treehopf import hopf, qed
from treehopf.checks import (
    basis_elements,
    basis_words,
    check_coaction_d1,
    check_coaction_d2,
    check_single_tree_restriction,
    check_electron_coaction_law,
    check_electron_coaction_morphism,
    check_intertwine,
    check_photon_coassoc,
    check_qed_hopf,
    qed_basis,
)


def he(t):
    return embed_tree(Tag.HE, t)


def hg(t):
    return embed_tree(Tag.HGAMMA, t)


def ha(t):
    return embed_tree(Tag.HALPHA, t)


def e3(t1, t2, t3, coeff=1):
    """One term of the three-slot electron coaction."""
    return tensor([he(t1), ha(t2), he(t3)]).scale(Fraction(coeff))


def g2(t1, t2, coeff=1):
    """One term of the two-slot photon coaction."""
    return tensor([hg(t1), ha(t2)]).scale(Fraction(coeff))


class TestElectronCoactionTable:
    def de(self, t):
        return qed.electron_renorm_coaction(he(t))

    def test_root(self):
        assert self.de(E) == e3(E, E, E)

    def test_order_one(self):
        assert self.de(Y) == e3(Y, E, E) + e3(E, E, Y)

    def test_order_two(self):
        assert self.de(DEUXUN) == e3(DEUXUN, E, E) + e3(Y, Y, E) + e3(E, E, DEUXUN)
        assert self.de(DEUXDEUX) == e3(DEUXDEUX, E, E) + e3(Y, E, Y) + e3(
            E, E, DEUXDEUX
        )

    def test_order_three(self):
        assert self.de(TROISUN) == (
            e3(TROISUN, E, E)
            + e3(DEUXUN, Y, E, coeff=2)
            + e3(Y, DEUXUN, E)
            + e3(E, E, TROISUN)
        )
        assert self.de(TROISDEUX) == (
            e3(TROISDEUX, E, E) + e3(Y, DEUXDEUX, E) + e3(E, E, TROISDEUX)
        )
        assert self.de(TROISTROIS) == (
            e3(TROISTROIS, E, E)
            + e3(DEUXDEUX, Y, E)
            + e3(DEUXUN, E, Y)
            + e3(Y, Y, Y)
            + e3(E, E, TROISTROIS)
        )
        assert self.de(TROISQUATRE) == (
            e3(TROISQUATRE, E, E)
            + e3(DEUXDEUX, Y, E)
            + e3(Y, E, DEUXUN)
            + e3(E, E, TROISQUATRE)
        )
        assert self.de(TROISCINQ) == (
            e3(TROISCINQ, E, E)
            + e3(DEUXDEUX, E, Y)
            + e3(Y, E, DEUXDEUX)
            + e3(E, E, TROISCINQ)
        )

    def test_recursive_route_agrees(self):
        for t in all_trees_up_to(5):
            assert qed.electron_renorm_coaction(
                he(t)
            ) == qed.electron_renorm_coaction_recursive(he(t))


class TestPhotonCoactionTable:
    def dg(self, t):
        return qed.photon_renorm_coaction(hg(t))

    def test_small_orders(self):
        assert self.dg(E) == g2(E, E)
        assert self.dg(Y) == g2(Y, E) + g2(E, Y)
        assert self.dg(DEUXUN) == g2(DEUXUN, E) + g2(Y, Y, coeff=2) + g2(E, DEUXUN)
        assert self.dg(DEUXDEUX) == g2(DEUXDEUX, E) + g2(E, DEUXDEUX)

    def test_order_three(self):
        assert self.dg(TROISUN) == (
            g2(TROISUN, E)
            + g2(DEUXUN, Y, coeff=3)
            + g2(Y, DEUXUN, coeff=3)
            + g2(E, TROISUN)
        )
        assert self.dg(TROISDEUX) == (
            g2(TROISDEUX, E) + g2(DEUXDEUX, Y) + g2(Y, DEUXDEUX) + g2(E, TROISDEUX)
        )
        assert self.dg(TROISTROIS) == (
            g2(TROISTROIS, E)
            + g2(DEUXDEUX, Y)
            + g2(Y, DEUXDEUX)
            + g2(E, TROISTROIS)
        )
        assert self.dg(TROISQUATRE) == (
            g2(TROISQUATRE, E) + g2(DEUXDEUX, Y) + g2(E, TROISQUATRE)
        )
        assert self.dg(TROISCINQ) == g2(TROISCINQ, E) + g2(E, TROISCINQ)

    def test_single_tree_restriction_matches_charge_coproduct(self):
        # on single trees the photon coaction reads off the charge coproduct
        # through the tree/word identification (left slot stays one tree)
        assert check_single_tree_restriction(6).ok

    def test_morphism(self):
        for x in basis_elements(Tag.HGAMMA, 3):
            for y in basis_elements(Tag.HGAMMA, 2):
                assert qed.photon_renorm_coaction(
                    x * y
                ) == qed.photon_renorm_coaction(x) * qed.photon_renorm_coaction(y)


class TestSigma:
    def test_collapses_words_by_over_product(self):
        x = from_word(Tag.HGAMMA, (Y, DEUXUN))
        from treehopf.trees import over

        assert qed.sigma(x) == ha(over(Y, DEUXUN))

    def test_intertwines_coaction_with_charge_coproduct(self):
        assert check_intertwine(4).ok


class TestCoactionConditions:
    def test_d1(self):
        for which in ("gamma", "e", "alpha"):
            assert check_coaction_d1(which, 3).ok, which

    def test_d2(self):
        for which in ("gamma", "e"):
            assert check_coaction_d2(which, 3).ok, which

    def test_photon_coassociative(self):
        assert check_photon_coassoc(4).ok


class TestSmashProduct:
    def test_unit_and_counit(self):
        u = qed.qed_unit()
        assert qed.qed_counit(u) == 1
        assert qed.qed_coproduct(u).contract_counit(0).contract_counit(0) == u

    def test_embedding_multiplicative(self):
        a = ha(DEUXDEUX)
        b = he(Y)
        ab = tensor([a, b])
        assert tensor([a, unit(Tag.HE)]) * tensor([unit(Tag.HALPHA), b]) == ab

    def test_hopf_axioms(self):
        assert check_qed_hopf(3).ok

    def test_electron_coaction_against_smash_coproduct(self):
        assert check_electron_coaction_law(3).ok
        assert check_electron_coaction_morphism(3).ok

    def test_basis_size(self):
        # graded dimension of the smash product at low order
        assert len(qed_basis(0)) == 1
        assert len(qed_basis(1)) == 3  # 1, V(e) (x) 1, 1 (x) Y


class TestMultiplicativeExtension:
    """Second route for the coactions built on ``algebra.multiplicative``:
    the image of a basis word is the product of the letter images folded
    from the unit, the old definition."""

    MAPS = (
        (Tag.HGAMMA, (Tag.HGAMMA, Tag.HALPHA), qed.delta_gamma_coaction),
        (Tag.HE, (Tag.HE, Tag.HALPHA), qed.delta_e_coaction),
        (Tag.HE, (Tag.HE, Tag.HALPHA), qed.delta_e_coaction_recursive),
        (Tag.HE, (Tag.HE, Tag.HALPHA, Tag.HE), qed.electron_renorm_coaction_recursive),
    )

    def test_coactions_fold_letter_images_from_the_unit(self):
        for tag, out_tags, f in self.MAPS:
            for w in basis_words(tag, 4):
                letters = [f(from_word(tag, (t,))) for t in w]
                expect = reduce(operator.mul, letters, tensor_unit(out_tags))
                assert f(from_word(tag, w)) == expect, (f.__name__, w)

    def test_recursive_coaction_reads_the_same_letters(self):
        for t in all_trees_up_to(5):
            assert qed.delta_e_coaction_recursive(he(t)) == qed.delta_e_coaction(he(t))

    def test_recursive_renorm_coaction_of_a_letter_is_not_the_cached_value(self):
        for t in (Y, DEUXDEUX, TROISCINQ):
            first = qed.electron_renorm_coaction_recursive(he(t))
            assert first is not qed._ern_rec_cache[t]
            assert first.terms is not qed._ern_rec_cache[t].terms
            expect = TensorElement(first.tags, dict(first.terms))
            first.terms.clear()
            first.terms[((Y,), (), (Y,))] = 7
            assert qed.electron_renorm_coaction_recursive(he(t)) == expect
            assert qed.electron_renorm_coaction_recursive(he(t)) == qed.electron_renorm_coaction(he(t))
