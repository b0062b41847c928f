"""Linear/tensor element arithmetic, word normalization, and JSON output."""

import importlib
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treehopf.trees import E, Y, DEUXUN, DEUXDEUX, TROISQUATRE, all_trees_up_to, decompose_over
from treehopf import checks
from treehopf.algebra import (
    MAPS,
    TREE_WORDS,
    Element,
    Tag,
    TensorElement,
    element_to_json,
    embed_tree,
    from_word,
    lift_linear,
    multiplicative,
    multiply_words,
    normalize_word,
    tensor,
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

    def test_constructors_normalize_words(self):
        # V(Y) V(e) is one basis word, however it is written.
        assert Element(Tag.HALPHA, {(Y, E): 1}) == from_word(Tag.HALPHA, (Y, E))
        assert Element(Tag.HALPHA, {(Y, E): 1, (E, Y): 2}).terms == {((E, Y),): 3}
        x = TensorElement((Tag.HALPHA, Tag.HE), {((Y, E), (Y,)): 1, ((E, Y), (Y,)): -1})
        assert x.terms == {}
        # In the free algebras the root tree is the unit, not a letter.
        for tags, terms in (((Tag.HE,), {((E,),): 1}), ((Tag.HALPHA, Tag.HGAMMA), {((E,), (Y, E)): 1})):
            with pytest.raises(ValueError):
                TensorElement(tags, terms)
        with pytest.raises(ValueError):
            Element(Tag.HE, {(E,): 1})
        # One word per slot, no more and no fewer.
        for ws in (((Y,), (Y,)), ()):
            with pytest.raises(ValueError):
                TensorElement((Tag.HE,), {ws: 1})


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
        for t in all_trees_up_to(7):
            letter = () if t is E else (t,)
            assert tree_word(Tag.HE, t) == tree_word(Tag.HGAMMA, t) == letter
            lifted = tree_word(Tag.HALPHA_NC, t)
            assert lifted == tuple(decompose_over(t))
            assert word_as_tree(Tag.HALPHA_NC, lifted) is t
            assert tree_word(Tag.HALPHA, t) == tuple(sorted(lifted, key=lambda u: u.sort_key()))
            for tag in Tag:
                # Read from the tag's table, not built again.
                assert tree_word(tag, t) is TREE_WORDS[tag][t]

    def test_long_generator_word_is_one_tree(self):
        # 3,000 generators, more than the recursion limit allows to nest.
        rng = random.Random(3000)
        letters = all_trees_up_to(3)
        word = tuple(rng.choice(letters) for _ in range(3000))
        t = word_as_tree(Tag.HALPHA_NC, word)
        assert t.order == sum(u.order + 1 for u in word)
        assert tree_word(Tag.HALPHA_NC, t) == word


class TestTag:
    @pytest.mark.parametrize("tag", list(Tag))
    def test_hashes_by_identity(self, tag):
        assert hash(tag) == object.__hash__(tag)

    @pytest.mark.parametrize("tag", list(Tag))
    def test_pickle_round_trips_to_the_member(self, tag):
        assert pickle.loads(pickle.dumps(tag)) is tag

    def test_lookup_by_value(self):
        assert Tag("He") is Tag.HE
        assert [tag.value for tag in Tag] == ["Hgamma", "He", "Halpha", "HalphaNC"]


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

    def test_mixed_tags_rejected(self):
        with pytest.raises(ValueError):
            embed_tree(Tag.HE, Y) + embed_tree(Tag.HGAMMA, Y)


class TestOneSlot:
    """An element is a one-slot tensor, and every one-slot result is one."""

    def test_element_defines_only_its_word_constructor_tag_and_counit(self):
        own = set(vars(Element)) - {"__module__", "__qualname__", "__doc__", "__slots__"}
        assert own == {"__init__", "tag", "counit"}
        assert issubclass(Element, TensorElement)

    def test_word_keyed_constructor_equals_the_one_slot_tensor(self):
        for w, c in (((Y,), 3), ((), Fraction(1, 2)), ((Y, DEUXUN), -1)):
            x = Element(Tag.HE, {w: c})
            t = TensorElement((Tag.HE,), {(w,): c})
            assert x.terms == {(w,): c}
            assert x == t and t == x and hash(x) == hash(t)
        assert Element(Tag.HE, {(Y,): 1}) != TensorElement((Tag.HGAMMA,), {((Y,),): 1})

    def test_one_slot_results_are_elements(self):
        x = embed_tree(Tag.HE, Y) + embed_tree(Tag.HE, DEUXUN).scale(2)
        two = tensor([x, x])
        d = MAPS["delta-p-e"](x)
        results = {
            "contract_counit": d.contract_counit(0),
            "slot_multiply": two.slot_multiply(0, 1, 0),
            "map_slot": x.map_slot(0, lift_linear((Tag.HE,), (Tag.HE,), lambda w: from_word(Tag.HE, w + w))),
            "map_slot to one slot": two.map_slot(1, lift_linear((Tag.HE,), (), lambda w: tensor_unit(()))),
            "antipode": MAPS["antipode-p-e"](x),
            "sigma": MAPS["sigma"](embed_tree(Tag.HGAMMA, DEUXUN)),
            "sum": x + x,
            "product": x * x,
            "scale": x.scale(Fraction(1, 3)),
            "negation": -x,
            "tensor of one": tensor([x]),
            "unit": unit(Tag.HE),
            "zero": zero(Tag.HE),
            "from_word": from_word(Tag.HE, (Y,)),
        }
        for name, out in results.items():
            assert type(out) is Element, name
            assert out.tag is Tag.HE or name == "sigma", name
        assert type(d) is TensorElement and type(two) is TensorElement

    def test_maps_accept_a_one_slot_tensor(self):
        # The public constructor gives a TensorElement, not an Element; every
        # one-slot map reads its tags, not the Element-only ``tag``.
        one_slot = [name for name, f in MAPS.items() if len(f.tags) == 1]
        assert len(one_slot) == 15
        for name in one_slot:
            (tag,) = MAPS[name].tags
            for w in checks.basis_words(tag, 3):
                raw = TensorElement((tag,), {(w,): 2})
                assert type(raw) is TensorElement
                assert MAPS[name](raw) == MAPS[name](from_word(tag, w, 2)), (name, w)
        raw = TensorElement((Tag.HE,), {((Y,),): 1})
        assert element_to_json(raw) == element_to_json(from_word(Tag.HE, (Y,)))

    def test_repr_brackets_only_tensors(self):
        x = embed_tree(Tag.HE, Y) - unit(Tag.HE).scale(2)
        assert repr(x) == "-2*1 + (e v e)"
        assert repr(tensor([x])) == repr(x)
        assert repr(tensor([x, unit(Tag.HE)])) == "-2*[1 (x) 1] + [(e v e) (x) 1]"


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

    def test_map_slot_identity(self):
        t = tensor([self.x(Y), self.x(DEUXDEUX)])
        assert t.map_slot(0, lift_linear((Tag.HE,), (Tag.HE,), lambda w: from_word(Tag.HE, w))) == t

    def test_bilinearity(self):
        a, b = self.x(Y), self.x(DEUXUN)
        lhs = tensor([a + b, a])
        assert lhs == tensor([a, a]) + tensor([b, a])


class TestJson:
    def test_shape(self):
        data = element_to_json(embed_tree(Tag.HE, Y).scale(Fraction(-1, 2)))
        assert data["tag"] == "He"
        assert data["terms"] == [{"coeff": "-1/2", "word": ["(e v e)"]}]


class TestCoefficients:
    def test_structure_maps_keep_int_coefficients(self):
        for name, f in MAPS.items():
            xs = checks.basis_elements(f.tags[0], 4) if len(f.tags) == 1 else checks.qed_basis(4)
            for x in xs:
                out = f(x)
                assert out.terms, (name, x)
                bad = [c for c in out.terms.values() if type(c) is not int]
                assert not bad, (name, x, bad)

    def test_integral_results_demote_to_int(self):
        x = embed_tree(Tag.HE, Y).scale(3) + embed_tree(Tag.HE, DEUXUN)
        half = x.scale(Fraction(1, 2))
        assert half.terms[((Y,),)] == Fraction(3, 2)
        back = half.scale(2)
        assert back == x
        assert all(type(c) is int for c in back.terms.values())
        t = tensor([x, x]).scale(Fraction(1, 3)).scale(3)
        assert all(type(c) is int for c in t.terms.values())

    def test_int_and_fraction_coefficients_agree(self):
        a = Element(Tag.HE, {(Y,): 2, (DEUXUN,): Fraction(1, 2)})
        b = Element(Tag.HE, {(Y,): Fraction(4, 2), (DEUXUN,): "1/2"})
        assert a == b and hash(a) == hash(b)
        assert type(b.terms[((Y,),)]) is int
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
    """The defining sum: each term's image spliced in, the pieces added.
    The map is handed each word as the basis element ``from_word`` builds."""
    out = None
    for ws, c in t.terms.items():
        image = f(from_word(t.tags[i], ws[i]))
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
        one_slot = {name: f.tags[0] for name, f in MAPS.items() if len(f.tags) == 1}
        assert len(one_slot) == 15
        for name, tag in one_slot.items():
            for seed in range(6):
                rng = random.Random(seed)
                t = tensor([self._random_sum(rng, tag), self._random_sum(rng, tag)])
                for i in (0, 1):
                    got = t.map_slot(i, MAPS[name])
                    assert got == _map_slot_oracle(t, i, MAPS[name]), (seed, name, i)

    def test_image_tag_mismatch_rejected(self):
        t = tensor([embed_tree(Tag.HE, Y) + embed_tree(Tag.HE, DEUXUN)])

        def f(w):
            return from_word(Tag.HE if w == (Y,) else Tag.HGAMMA, w)

        with pytest.raises(ValueError):
            t.map_slot(0, lift_linear((Tag.HE,), (Tag.HE,), f))

    def test_image_of_undeclared_tags_rejected(self):
        # Every image has the same tags, but not the ones the map declares.
        t = tensor([embed_tree(Tag.HE, Y) + embed_tree(Tag.HE, DEUXUN)])
        with pytest.raises(ValueError, match="image tag mismatch"):
            t.map_slot(0, lift_linear((Tag.HE,), (Tag.HE,), lambda w: from_word(Tag.HGAMMA, w)))

    def test_map_applied_to_zero_gives_zero(self):
        f = lift_linear((Tag.HE,), (Tag.HGAMMA,), lambda w: from_word(Tag.HGAMMA, w))
        got = TensorElement((Tag.HE,)).map_slot(0, f)
        assert got == zero(Tag.HGAMMA) and type(got) is Element

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_every_map_sends_zero_to_zero(self, name):
        for f in (MAPS[name], checks.corrupt_map(MAPS, name)[name]):
            got = f(TensorElement(f.tags))
            assert got.tags == f.out_tags and not got.terms, name

    def test_cancelled_sum_maps_to_zero(self):
        x = embed_tree(Tag.HE, DEUXUN)
        got = MAPS["delta-e"](x - x)
        assert got.tags == (Tag.HE, Tag.HALPHA, Tag.HE) and not got.terms

    def test_one_slot_maps_are_word_maps(self):
        one_slot = {name: f.tags[0] for name, f in MAPS.items() if len(f.tags) == 1}
        assert len(one_slot) == 15
        for name, tag in one_slot.items():
            f = MAPS[name]
            assert f.tags == (tag,) and callable(f.word), name
            # Built once and kept under its own name, with its docstring.
            module = importlib.import_module(f.__module__)
            assert getattr(module, f.__name__) is f and f.__doc__, name

    def test_every_structure_map_is_a_word_map(self):
        assert len(MAPS) == 17
        for name, f in MAPS.items():
            assert type(f.tags) is tuple and f.tags, name
            assert all(isinstance(tag, Tag) for tag in f.tags) and callable(f.word), name

    def test_two_slot_map_refuses_other_slots(self):
        coproduct = MAPS["qed-coproduct"]
        ha, he = embed_tree(Tag.HALPHA, Y), embed_tree(Tag.HE, Y)
        for t in (ha, he, tensor([he, ha]), tensor([he, he]), tensor([he, ha, he])):
            with pytest.raises(ValueError):
                t.map_slot(0, coproduct)
        with pytest.raises(ValueError):
            tensor([ha, he]).map_slot(1, coproduct)
        for t in (ha, tensor([ha, he, he])):
            with pytest.raises(ValueError):
                coproduct(t)
        with pytest.raises(ValueError):
            MAPS["delta-alpha"](tensor([ha, he]))

    def test_word_map_of_another_tag_refuses_the_slot(self):
        t = tensor([embed_tree(Tag.HE, Y) + embed_tree(Tag.HE, DEUXUN)])
        with pytest.raises(ValueError, match="expected a Tag.HALPHA element"):
            t.map_slot(0, MAPS["antipode-alpha"])

    def test_damaged_map_is_not_bypassed(self):
        # corrupt_map's variant is a word map of its own, whose ``word``
        # damages the clean map's image.  A functools.wraps wrapper would copy
        # ``word`` and ``tags`` from the clean map and be bypassed by map_slot,
        # so corrupt_map must not use wraps.
        damaged = checks.corrupt_map(MAPS, "delta-alpha")["delta-alpha"]
        x = embed_tree(Tag.HALPHA, DEUXUN) - embed_tree(Tag.HALPHA, TROISQUATRE).scale(2)
        t = tensor([x, embed_tree(Tag.HE, Y)])
        got = t.map_slot(0, damaged)
        assert got != t.map_slot(0, MAPS["delta-alpha"])
        assert got == _map_slot_oracle(t, 0, damaged)
