"""Linear/tensor element arithmetic, word normalization, and JSON codecs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treehopf.trees import E, Y, DEUXUN, DEUXDEUX, TROISQUATRE, all_trees_up_to
from treehopf import checks
from treehopf.algebra import (
    MAP_INPUTS,
    MAPS,
    Element,
    Tag,
    TensorElement,
    element_from_json,
    element_to_json,
    embed_tree,
    from_word,
    multiplicative,
    multiply_words,
    normalize_word,
    tensor,
    tensor_from_json,
    tensor_to_json,
    tensor_unit,
    tree_word,
    unit,
    word_as_tree,
    word_degree,
    zero,
)


def small_elements(tag: Tag, max_order=3, max_terms=3):
    """Random small linear combinations of basis words."""
    letters = [t for t in all_trees_up_to(max_order) if tag in (Tag.HALPHA, Tag.HALPHA_NC) or t is not E]
    words = st.lists(st.sampled_from(letters), max_size=2).map(
        lambda w: normalize_word(tag, w)
    )
    coeffs = st.fractions(
        min_value=-3, max_value=3, max_denominator=4
    ).filter(lambda c: c != 0)
    return st.lists(st.tuples(words, coeffs), max_size=max_terms).map(
        lambda pairs: sum(
            (from_word(tag, w, c) for w, c in pairs), zero(tag)
        )
    )


class TestWords:
    def test_free_words_reject_root_letter(self):
        with pytest.raises(ValueError):
            normalize_word(Tag.HGAMMA, (E,))
        with pytest.raises(ValueError):
            normalize_word(Tag.HE, (Y, E))

    def test_generator_words_allow_root_argument(self):
        # the degree-one generator has the root tree as its argument
        assert normalize_word(Tag.HALPHA, (E,)) == (E,)

    def test_commutative_sorting(self):
        assert normalize_word(Tag.HALPHA, (Y, E)) == (E, Y)
        assert normalize_word(Tag.HALPHA_NC, (Y, E)) == (Y, E)

    def test_degrees(self):
        assert word_degree(Tag.HGAMMA, (DEUXUN, Y)) == 3
        # generator words weigh each argument by order + 1
        assert word_degree(Tag.HALPHA, (E, Y)) == 3

    def test_multiply_words(self):
        assert multiply_words(Tag.HE, (Y,), (DEUXUN,)) == (Y, DEUXUN)
        assert multiply_words(Tag.HALPHA, (Y,), (E,)) == (E, Y)


class TestEmbedding:
    def test_free_embedding_is_single_letter(self):
        assert embed_tree(Tag.HGAMMA, DEUXUN) == from_word(Tag.HGAMMA, (DEUXUN,))
        assert embed_tree(Tag.HE, E) == unit(Tag.HE)

    def test_charge_embedding_factors_into_generators(self):
        # deuxun = V(e)/V(e); troisquatre = V(deuxun)
        assert embed_tree(Tag.HALPHA, DEUXUN) == from_word(Tag.HALPHA, (E, E))
        assert embed_tree(Tag.HALPHA, TROISQUATRE) == from_word(
            Tag.HALPHA, (DEUXUN,)
        )

    def test_charge_embedding_is_multiplicative(self):
        for a in all_trees_up_to(3):
            for b in all_trees_up_to(2):
                from treehopf.trees import over

                assert embed_tree(Tag.HALPHA, over(a, b)) == embed_tree(
                    Tag.HALPHA, a
                ) * embed_tree(Tag.HALPHA, b)


class TestMultiplicative:
    def test_folds_letters_in_written_order(self):
        word_fn = multiplicative(lambda: unit(Tag.HE), lambda t: from_word(Tag.HE, (t, t)))
        assert word_fn((Y, DEUXUN)) == from_word(Tag.HE, (Y, Y, DEUXUN, DEUXUN))
        assert word_fn((DEUXUN, Y)) == from_word(Tag.HE, (DEUXUN, DEUXUN, Y, Y))

    def test_unit_only_for_the_empty_word(self):
        built = []

        def make_unit():
            built.append(1)
            return unit(Tag.HE)

        word_fn = multiplicative(make_unit, lambda t: from_word(Tag.HE, (t,)))
        for w in ((Y,), (Y, DEUXUN), (Y, Y, DEUXDEUX)):
            assert word_fn(w) == from_word(Tag.HE, w)
        assert built == []
        assert word_fn(()) == unit(Tag.HE)
        assert built == [1]

    def test_tree_word(self):
        for t in all_trees_up_to(4):
            letter = () if t is E else (t,)
            assert tree_word(Tag.HE, t) == tree_word(Tag.HGAMMA, t) == letter
            lifted = tree_word(Tag.HALPHA_NC, t)
            assert word_as_tree(Tag.HALPHA_NC, lifted) is t
            assert tree_word(Tag.HALPHA, t) == tuple(sorted(lifted, key=lambda u: u.sort_key()))


class TestElementArithmetic:
    @given(small_elements(Tag.HE), small_elements(Tag.HE), small_elements(Tag.HE))
    def test_ring_laws_he(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(small_elements(Tag.HALPHA), small_elements(Tag.HALPHA))
    def test_charge_algebra_commutes(self, x, y):
        assert x * y == y * x

    @given(small_elements(Tag.HGAMMA))
    def test_unit_and_zero(self, x):
        assert x * unit(Tag.HGAMMA) == x
        assert unit(Tag.HGAMMA) * x == x
        assert x + zero(Tag.HGAMMA) == x
        assert x - x == zero(Tag.HGAMMA)

    def test_noncommutative_witness(self):
        a = embed_tree(Tag.HE, Y)
        b = embed_tree(Tag.HE, DEUXUN)
        assert a * b != b * a

    def test_counit_picks_constant_term(self):
        x = unit(Tag.HE).scale(Fraction(5, 2)) + embed_tree(Tag.HE, Y)
        assert x.counit() == Fraction(5, 2)

    def test_grade_components(self):
        x = embed_tree(Tag.HE, Y) + embed_tree(Tag.HE, DEUXUN).scale(2)
        comps = x.grade_components()
        assert set(comps) == {1, 2}
        assert comps[1] == embed_tree(Tag.HE, Y)

    def test_mixed_tags_rejected(self):
        with pytest.raises(ValueError):
            embed_tree(Tag.HE, Y) + embed_tree(Tag.HGAMMA, Y)


class TestTensor:
    def x(self, t):
        return embed_tree(Tag.HE, t)

    def test_tensor_product_componentwise(self):
        a = tensor([self.x(Y), self.x(DEUXUN)])
        b = tensor([self.x(DEUXUN), self.x(Y)])
        prod = a * b
        assert prod == tensor([self.x(Y) * self.x(DEUXUN), self.x(DEUXUN) * self.x(Y)])

    def test_slot_multiply(self):
        t = tensor([self.x(Y), self.x(DEUXUN), self.x(Y)])
        merged = t.slot_multiply(0, 1, 0)
        assert merged == tensor([self.x(Y) * self.x(DEUXUN), self.x(Y)])

    def test_contract_counit(self):
        t = tensor([unit(Tag.HE), self.x(DEUXUN)]) + tensor(
            [self.x(Y), self.x(Y)]
        )
        assert t.contract_counit(0) == tensor([self.x(DEUXUN)])

    def test_swap_slots(self):
        t = tensor([self.x(Y), self.x(DEUXUN)])
        assert t.swap_slots(0, 1) == tensor([self.x(DEUXUN), self.x(Y)])

    def test_map_slot_identity(self):
        from treehopf.algebra import from_word as fw

        t = tensor([self.x(Y), self.x(DEUXDEUX)])
        assert t.map_slot(0, lambda w: fw(Tag.HE, w)) == t

    def test_bilinearity(self):
        a, b = self.x(Y), self.x(DEUXUN)
        lhs = tensor([a + b, a])
        assert lhs == tensor([a, a]) + tensor([b, a])


class TestJson:
    @given(small_elements(Tag.HALPHA))
    def test_element_roundtrip(self, x):
        assert element_from_json(element_to_json(x)) == x

    @given(small_elements(Tag.HGAMMA), small_elements(Tag.HALPHA))
    def test_tensor_roundtrip(self, a, b):
        t = tensor([a, b])
        if not t.terms:
            t = tensor_unit((Tag.HGAMMA, Tag.HALPHA))
        assert tensor_from_json(tensor_to_json(t)) == t

    def test_shape(self):
        data = element_to_json(embed_tree(Tag.HE, Y).scale(Fraction(-1, 2)))
        assert data["tag"] == "He"
        assert data["terms"] == [{"coeff": "-1/2", "word": ["(e v e)"]}]


class TestCoefficients:
    def test_structure_maps_keep_int_coefficients(self):
        for name, tags in MAP_INPUTS.items():
            if len(tags) != 1:
                continue
            for x in checks.basis_elements(tags[0], 4):
                out = MAPS[name](x)
                assert out.terms, (name, x)
                bad = [c for c in out.terms.values() if type(c) is not int]
                assert not bad, (name, x, bad)

    def test_integral_results_demote_to_int(self):
        x = embed_tree(Tag.HE, Y).scale(3) + embed_tree(Tag.HE, DEUXUN)
        half = x.scale(Fraction(1, 2))
        assert half.terms[(Y,)] == Fraction(3, 2)
        back = half.scale(2)
        assert back == x
        assert all(type(c) is int for c in back.terms.values())
        t = tensor([x, x]).scale(Fraction(1, 3)).scale(3)
        assert all(type(c) is int for c in t.terms.values())

    def test_int_and_fraction_coefficients_agree(self):
        a = Element(Tag.HE, {(Y,): 2, (DEUXUN,): Fraction(1, 2)})
        b = Element(Tag.HE, {(Y,): Fraction(4, 2), (DEUXUN,): "1/2"})
        assert a == b and hash(a) == hash(b)
        assert type(b.terms[(Y,)]) is int
        ta = TensorElement((Tag.HE, Tag.HE), {((Y,), ()): 3})
        tb = TensorElement((Tag.HE, Tag.HE), {((Y,), ()): Fraction(3)})
        assert ta == tb and hash(ta) == hash(tb)

    def test_zero_coefficients_never_survive(self):
        x = embed_tree(Tag.HE, Y) + embed_tree(Tag.HE, DEUXUN).scale(Fraction(1, 2))
        assert (x + x.scale(-1)).terms == {}
        assert x.scale(0).terms == {}
        assert Element(Tag.HE, {(Y,): 0, (DEUXUN,): "0", (): Fraction(0)}).terms == {}
        t = tensor([x, x])
        assert (t + (-t)).terms == {} and t.scale(0).terms == {}
        assert all(c != 0 for c in (x + embed_tree(Tag.HE, Y).scale(-1)).terms.values())

    def test_floats_rejected(self):
        x = embed_tree(Tag.HE, Y)
        with pytest.raises(TypeError):
            x.scale(0.5)
        with pytest.raises(TypeError):
            x * 0.5
        with pytest.raises(TypeError):
            Element(Tag.HE, {(Y,): 0.1})
        with pytest.raises(TypeError):
            from_word(Tag.HE, (Y,), 0.1)
        with pytest.raises(TypeError):
            tensor([x]).scale(0.5)


def _map_slot_oracle(t: TensorElement, i: int, f) -> TensorElement:
    """The defining sum: each term's image spliced in, the pieces added."""
    out = None
    for ws, c in t.terms.items():
        image = f(ws[i])
        if isinstance(image, Element):
            image = TensorElement((image.tag,), {(w,): k for w, k in image.terms.items()})
        piece = TensorElement(
            t.tags[:i] + image.tags + t.tags[i + 1 :],
            {ws[:i] + iws + ws[i + 1 :]: c * ic for iws, ic in image.terms.items()},
        )
        out = piece if out is None else out + piece
    return out


class TestMapSlot:
    def _random_sum(self, rng: random.Random, tag: Tag) -> Element:
        words = checks.basis_words(tag, 3)
        out = zero(tag)
        for w in rng.sample(words, 4):
            c = rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
            out = out + from_word(tag, w, c)
        return out

    def test_against_oracle(self):
        maps = {
            name: MAPS[name]
            for name in ("antipode-p-e", "delta-p-e", "delta-e-coaction", "delta-e")
        }
        for seed in range(6):
            rng = random.Random(seed)
            t = tensor([self._random_sum(rng, Tag.HE), self._random_sum(rng, Tag.HE)])
            for name, fn in maps.items():
                f = lambda w: fn(from_word(Tag.HE, w))
                for i in (0, 1):
                    assert t.map_slot(i, f) == _map_slot_oracle(t, i, f), (seed, name, i)

    def test_image_tag_mismatch_rejected(self):
        t = tensor([embed_tree(Tag.HE, Y) + embed_tree(Tag.HE, DEUXUN)])
        f = lambda w: from_word(Tag.HE if w == (Y,) else Tag.HGAMMA, w)
        with pytest.raises(ValueError):
            t.map_slot(0, f)

    def test_map_applied_to_zero_rejected(self):
        with pytest.raises(ValueError):
            TensorElement((Tag.HE,)).map_slot(0, lambda w: from_word(Tag.HE, w))
