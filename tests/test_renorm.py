"""Characters, renormalization factors, and the order-by-order consistency
of the bare and renormalized propagator expansions."""

import json
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import combinations

import pytest

from treehopf.trees import (
    E,
    Y,
    DEUXUN,
    DEUXDEUX,
    all_trees_up_to,
    enumerate_trees,
)
from treehopf.algebra import Tag, TensorElement, embed_tree, from_word
from treehopf import checks, hopf, renorm
from treehopf.checks import basis_elements, basis_words
from treehopf.renorm import (
    Character,
    _commute,
    assemble_series,
    dyson_check_electron,
    dyson_check_photon,
    evaluate,
    make_toy_character,
    pair_evaluate,
    renormalized_electron,
    renormalized_photon,
    ward_alpha0,
    z2_factor,
    z2_series,
    z3_series,
)
from treehopf.series import Matrix, Series, indeterminate, one, r_eq, r_mul


def zero_character(tag: Tag, max_order=5) -> Character:
    trees = all_trees_up_to(max_order)
    if tag in (Tag.HALPHA, Tag.HALPHA_NC):
        values = {t: Fraction(0) for t in trees}
    else:
        values = {t: Fraction(0) for t in trees if t is not E}
    return Character(tag, values)


class TestCharacter:
    def test_multiplicative(self):
        for tag in (Tag.HE, Tag.HGAMMA, Tag.HALPHA):
            chi = make_toy_character(tag, seed=5, max_order=4)
            for x in basis_elements(tag, 2):
                for y in basis_elements(tag, 2):
                    assert evaluate(chi, x * y) == evaluate(chi, x) * evaluate(
                        chi, y
                    )

    def test_evaluates_a_one_slot_tensor(self):
        chi = make_toy_character(Tag.HE, seed=5, max_order=3)
        for w in basis_words(Tag.HE, 3):
            raw = TensorElement((Tag.HE,), {(w,): 3})
            want = evaluate(chi, from_word(Tag.HE, w, 3))
            assert evaluate(chi, raw) == chi(raw) == want
        with pytest.raises(ValueError):
            evaluate(chi, TensorElement((Tag.HGAMMA,), {((Y,),): 1}))

    def test_charge_character_values_root_generator(self):
        chi = make_toy_character(Tag.HALPHA, seed=3)
        # the degree-one generator argument is the root tree; it carries an
        # honest value, distinct from the empty word which evaluates to one
        assert chi.on_word(()) == Fraction(1)
        assert chi.on_word((E,)) == chi.letter(E)

    def test_free_character_rejects_root_value(self):
        with pytest.raises(ValueError):
            Character(Tag.HE, {E: Fraction(2)})

    def test_commutativity_enforced_on_charge(self):
        a = Matrix.from_rows([[0, 1], [0, 0]])
        b = Matrix.from_rows([[0, 0], [1, 0]])
        with pytest.raises(ValueError):
            Character(Tag.HALPHA, {E: a, Y: b}, Matrix.identity(2))

    def test_toy_matrix_charge_values_are_scalar_multiples(self):
        chi = make_toy_character(Tag.HALPHA, seed=1, kind="matrix", d=3, max_order=3)
        for v in chi.values.values():
            assert v == Matrix.identity(3).scale(v.rows[0][0])

    @pytest.mark.parametrize("tag", list(Tag), ids=lambda tag: tag.value)
    def test_unknown_toy_kind_refused(self, tag):
        # Checked before any value is drawn: at max_order 0 a free algebra
        # draws none.
        with pytest.raises(ValueError, match="unknown character kind 'bogus'"):
            make_toy_character(tag, 0, "bogus", max_order=0)

    def test_seed_determinism(self):
        a = make_toy_character(Tag.HE, seed=9, max_order=3)
        b = make_toy_character(Tag.HE, seed=9, max_order=3)
        assert a.values == b.values

    def test_values_are_frozen(self):
        source = {Y: Fraction(2)}
        chi = Character(Tag.HE, source)
        with pytest.raises(TypeError):
            chi.values[DEUXUN] = Fraction(3)
        with pytest.raises(FrozenInstanceError):
            chi.values = {}
        # the character keeps its own copy of the values it was built from
        source[Y] = Fraction(5)
        assert chi.letter(Y) == 2

    def test_frozen_values_cannot_bypass_commutativity(self):
        a = Matrix.from_rows([[0, 1], [0, 0]])
        b = Matrix.from_rows([[0, 0], [1, 0]])
        chi = Character(Tag.HALPHA, {E: a}, Matrix.identity(2))
        with pytest.raises(TypeError):
            chi.values[Y] = b


def _old_on_word(chi: Character, word):
    """The fold from the ring identity that ``on_word`` replaces."""
    acc = chi.ring_one
    for t in word:
        acc = r_mul(acc, chi.letter(t))
    return acc


class TestOnWord:
    def test_matches_identity_first_fold(self):
        rng = random.Random(0)
        trees = [t for t in all_trees_up_to(4) if t is not E]
        for kind in ("scalar", "matrix"):
            chi = make_toy_character(Tag.HE, seed=6, kind=kind, d=3, max_order=4)
            words = [()] + [(t,) for t in trees]
            words += [tuple(rng.choice(trees) for _ in range(n)) for n in (2, 3) for _ in range(20)]
            for w in words:
                got = chi.on_word(w)
                assert r_eq(got, _old_on_word(chi, w))
                if kind == "matrix":
                    assert isinstance(got, Matrix)

    def test_charge_words_match_identity_first_fold(self):
        chi = make_toy_character(Tag.HALPHA, seed=6, max_order=3)
        gens = all_trees_up_to(3)
        for n in range(4):
            for w in combinations(gens, n):
                assert chi.on_word(w) == _old_on_word(chi, w)

    def test_matrix_report_residuals_stay_matrices(self):
        u = make_toy_character(Tag.HE, 2, kind="matrix", d=3, max_order=3)
        cg = make_toy_character(Tag.HALPHA, 3, max_order=3)
        ce = make_toy_character(Tag.HE, 4, max_order=3)
        data = dyson_check_electron(u, cg, ce, 3).to_json()
        for residual in data["per_order_residuals"].values():
            assert isinstance(residual, list) and len(residual) == 3
            assert all(row == ["0", "0", "0"] for row in residual)


def _pairwise_oracle(values) -> bool:
    """The quadratic check: every pair of values commutes."""
    return all(_commute(a, b) for a, b in combinations(values, 2))


def _accepted(values, d) -> bool:
    trees = all_trees_up_to(4)[: len(values)]
    try:
        Character(Tag.HALPHA, dict(zip(trees, values)), Matrix.identity(d))
    except ValueError:
        return False
    return True


class TestChargeCommutativity:
    NIL = Matrix.from_rows([[0, 1], [0, 0]])
    NIL_T = Matrix.from_rows([[0, 0], [1, 0]])

    def test_nilpotent_pair_among_central_values_rejected(self):
        central = [Fraction(2), Matrix.identity(2).scale(Fraction(-1, 3)), Fraction(0)]
        values = central + [self.NIL] + central + [self.NIL_T]
        assert not _pairwise_oracle(values)
        assert not _accepted(values, 2)

    def test_one_dense_matrix_among_central_values_accepted(self):
        dense = Matrix.from_rows([[1, 2], [3, Fraction(4, 5)]])
        values = [Fraction(3), Matrix.identity(2).scale(7), dense, Matrix.zeros(2), Fraction(-1)]
        assert _pairwise_oracle(values)
        assert _accepted(values, 2)

    def test_agrees_with_pairwise_oracle(self):
        rng = random.Random(2024)
        verdicts = set()
        for _ in range(300):
            d = rng.choice((2, 3))

            def frac():
                return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

            def dense():
                return Matrix.from_rows([[frac() for _ in range(d)] for _ in range(d)])

            base = dense()
            pool = [
                lambda: frac(),
                lambda: Matrix.identity(d).scale(frac()),
                lambda: dense(),
                # polynomials in one matrix commute with each other
                lambda: base.scale(frac()),
                lambda: base @ base + Matrix.identity(d).scale(frac()),
                lambda: Matrix.from_rows(
                    [[int(i + 1 == j) for j in range(d)] for i in range(d)]
                ),
            ]
            values = [rng.choice(pool)() for _ in range(rng.randint(1, 6))]
            want = _pairwise_oracle(values)
            assert _accepted(values, d) == want
            verdicts.add(want)
        assert verdicts == {True, False}


def _coaction_characters(kind, seed=3, n=5):
    """Photon and electron characters, the charge counterterm and the
    electron counterterm; with ``kind='matrix'`` the electron counterterm is
    matrix-valued too, so that the slot order of a product shows."""
    return (
        make_toy_character(Tag.HGAMMA, seed, kind=kind, d=3, max_order=n),
        make_toy_character(Tag.HE, seed, kind=kind, d=3, max_order=n),
        make_toy_character(Tag.HALPHA, seed + 1, kind=kind, d=3, max_order=n),
        make_toy_character(Tag.HE, seed + 2, kind=kind, d=3, max_order=n),
    )


def _series_a(u, cg, n):
    """The left side A of a Dyson report, read through c_gamma's charge side
    as ``renorm.dyson_reports`` reads it."""
    return renorm._coaction_series(u, renorm._charge_side(cg, n))


def _drop_one_coaction_pair(monkeypatch, characters, order):
    """Replace the charge coaction table ``renorm._charge_side`` reads
    (``renorm.charge_coaction_tree``) by one that, on one tree of the given
    order, lacks a pair, chosen so that the series coefficient of that order
    changes."""
    clean = renorm.charge_coaction_tree
    whole = _series_a(*characters, order)[order]
    for target in enumerate_trees(order):
        pairs = list(clean(target).items())
        for i in range(len(pairs)):
            kept = dict(pairs[:i] + pairs[i + 1 :])
            monkeypatch.setattr(
                renorm,
                "charge_coaction_tree",
                lambda a: kept if a is target else clean(a),
            )
            if not r_eq(_series_a(*characters, order)[order], whole):
                return
            monkeypatch.setattr(renorm, "charge_coaction_tree", clean)
    raise AssertionError(f"no coaction pair of an order-{order} tree changes the series")


class TestTreeRouteMatchesCoactions:
    """The per-tree coefficients, ``pair_evaluate`` on the registered tensor
    coactions, and the charge coaction table the series route reads."""

    ORDER = 5

    @pytest.mark.parametrize("kind", ["scalar", "matrix"])
    def test_match_direct_evaluation(self, kind):
        # the characters hold no state: the same pairing again, and with
        # freshly built characters, gives the first values
        trees = all_trees_up_to(self.ORDER)
        u, ue, cg, ce = _coaction_characters(kind)
        want_photon = [renormalized_photon(u, cg, t) for t in trees]
        want_electron = [renormalized_electron(ue, cg, ce, t) for t in trees]
        for phase in ("again", "fresh"):
            if phase == "fresh":
                u, ue, cg, ce = _coaction_characters(kind)
            assert [renormalized_photon(u, cg, t) for t in trees] == want_photon, phase
            assert [renormalized_electron(ue, cg, ce, t) for t in trees] == want_electron, phase

    def test_tag_mismatch_refused(self):
        u, ue, cg, _ = _coaction_characters("scalar", n=2)
        with pytest.raises(ValueError):
            renormalized_photon(ue, cg, Y)
        with pytest.raises(ValueError):
            renormalized_photon(u, u, Y)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_electron_tag_mismatch_refused(self, slot):
        u, ue, cg, ce = _coaction_characters("scalar", n=2)
        good = [ue, cg, ce]
        assert renormalized_electron(*good, Y) == ue.letter(Y) - ce.letter(Y)
        chars = list(good)
        chars[slot] = (u, ce, cg)[slot]
        with pytest.raises(ValueError):
            renormalized_electron(*chars, Y)

    def test_dropped_photon_term_fails_at_its_order(self, monkeypatch):
        u, _, cg, _ = _coaction_characters("scalar", n=4)
        assert dyson_check_photon(u, cg, 4).ok
        _drop_one_coaction_pair(monkeypatch, (u, cg), 3)
        report = dyson_check_photon(u, cg, 4)
        assert not report.ok and report.first_failure == 3
        monkeypatch.undo()
        assert dyson_check_photon(u, cg, 4).ok

    def test_dropped_electron_term_fails_at_its_order(self, monkeypatch):
        _, ue, cg, ce = _coaction_characters("scalar", n=4)
        assert dyson_check_electron(ue, cg, ce, 4).ok
        _drop_one_coaction_pair(monkeypatch, (ue, cg), 3)
        report = dyson_check_electron(ue, cg, ce, 4)
        assert not report.ok and report.first_failure == 3
        monkeypatch.undo()
        assert dyson_check_electron(ue, cg, ce, 4).ok


def _routes(u, ue, cg, ce, n):
    """For the photon and the electron, the left side of the Dyson report,
    A (``_series_a``), and the per-tree renormalized series
    summed order by order times the report's factor, Z3 or Z2."""
    tree_photon = assemble_series(lambda t: renormalized_photon(u, cg, t), n, u.ring_one)
    tree_electron = assemble_series(
        lambda t: renormalized_electron(ue, cg, ce, t), n, ue.ring_one
    )
    return (
        (_series_a(u, cg, n), tree_photon * z3_series(cg, n)),
        (_series_a(ue, cg, n), tree_electron * z2_factor(ce, n)),
    )


class TestSeriesRouteMatchesTreeRoute:
    """The factors cancel: the per-tree renormalized series times Z3 (photon)
    or Z2 (electron), the right factor last, is the series A that the Dyson
    reports read."""

    ORDER = 5

    @pytest.mark.parametrize("kind", ["scalar", "matrix"])
    @pytest.mark.parametrize("seed", range(4))
    def test_each_order_matches(self, kind, seed):
        chars = _coaction_characters(kind, seed=seed, n=self.ORDER)
        for series, tree_route in _routes(*chars, self.ORDER):
            assert series.order == tree_route.order == self.ORDER
            for k in range(self.ORDER + 1):
                assert r_eq(series[k], tree_route[k]), k

    @pytest.mark.parametrize("ring, n", [("scalar", 6), ("matrix", 5)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_benchmark_shapes_match(self, ring, n, seed):
        # the characters of ``treehopf renorm --ring RING --order N --seed SEED``
        chars = (
            make_toy_character(Tag.HGAMMA, seed, ring, 4, max_order=n),
            make_toy_character(Tag.HE, seed, ring, 4, max_order=n),
            make_toy_character(Tag.HALPHA, seed + 1, "scalar", 4, max_order=n),
            make_toy_character(Tag.HE, seed + 2, "scalar", 4, max_order=n),
        )
        for series, tree_route in _routes(*chars, n):
            assert series == tree_route

    def test_corrupt_map_breaks_its_coaction_agreement(self, monkeypatch):
        # Only renorm's binding is replaced, never the registry itself:
        # hopf's antipode cache outlives the test.
        clean = renorm.MAPS
        chars = _coaction_characters("scalar", n=4)
        broken = {"photon": set(), "electron": set()}
        for name in clean:
            monkeypatch.setattr(renorm, "MAPS", checks.corrupt_map(clean, name))
            for which, (series, tree_route) in zip(broken, _routes(*chars, 4)):
                if series != tree_route:
                    broken[which].add(name)
        monkeypatch.undo()
        assert broken == {
            "photon": {"delta-gamma-coaction", "delta-p-gamma", "sigma", "delta-gamma"},
            "electron": {"delta-e-coaction", "delta-p-e", "antipode-p-e", "delta-e"},
        }
        assert len(set(clean) - broken["photon"] - broken["electron"]) == 9
        assert all(series == tree_route for series, tree_route in _routes(*chars, 4))

    @pytest.mark.parametrize("seed", range(4))
    def test_reversed_electron_product_differs(self, seed):
        _, ue, cg, ce = _coaction_characters("matrix", seed=seed, n=self.ORDER)
        tree_electron = assemble_series(
            lambda t: renormalized_electron(ue, cg, ce, t), self.ORDER, ue.ring_one
        )
        series = _series_a(ue, cg, self.ORDER)
        assert series != z2_factor(ce, self.ORDER) * tree_electron

    @pytest.mark.parametrize("kind", ["scalar", "matrix"])
    def test_electron_report_does_not_depend_on_its_counterterm(self, kind):
        # Z2 cancels, so ten electron counterterms give one report
        _, ue, cg, _ = _coaction_characters(kind, n=self.ORDER)
        reports = {
            json.dumps(
                dyson_check_electron(
                    ue, cg, make_toy_character(Tag.HE, seed, kind, 3, max_order=self.ORDER), self.ORDER
                ).to_json()
            )
            for seed in range(10)
        }
        assert len(reports) == 1


class TestSquaredSeriesDuality:
    def test_pairing_matches_series_square(self):
        # the product of two expansions is dual to the pruning coproducts:
        # summing the two-character pairing over one order reproduces the
        # coefficient of the squared series
        n = 4
        for tag, delta in (
            (Tag.HGAMMA, hopf.delta_p_gamma),
            (Tag.HE, hopf.delta_p_e),
        ):
            u = make_toy_character(tag, seed=11, max_order=n)
            f = assemble_series(u.letter, n, Fraction(1))
            square = f * f
            for k in range(n + 1):
                acc = Fraction(0)
                for t in enumerate_trees(k):
                    acc += pair_evaluate([u, u], delta(embed_tree(tag, t)))
                assert acc == square[k]


class TestFactors:
    def test_z3_trivial(self):
        z3 = z3_series(zero_character(Tag.HALPHA), 4)
        assert z3 == one(4)

    def test_z3_coefficients_by_enumeration(self):
        c = make_toy_character(Tag.HALPHA, seed=2, max_order=4)
        z3 = z3_series(c, 4)
        assert z3[0] == 1
        for k in range(1, 5):
            assert z3[k] == -sum(
                (c.letter(u) for u in enumerate_trees(k - 1)), Fraction(0)
            )
        assert len(enumerate_trees(3)) == 5  # five contributions at order 4

    def test_z2_trivial(self):
        assert z2_series(zero_character(Tag.HE), 4) == one(4)

    def test_z2_small_orders(self):
        c = make_toy_character(Tag.HE, seed=2, max_order=4)
        z2bar = z2_series(c, 2)
        assert z2bar[1] == -c.letter(Y)
        s = hopf.antipode_p_e
        expect2 = evaluate(c, s(embed_tree(Tag.HE, DEUXUN))) + evaluate(
            c, s(embed_tree(Tag.HE, DEUXDEUX))
        )
        assert z2bar[2] == expect2

    @pytest.mark.parametrize("kind", ["scalar", "matrix"])
    def test_z2_antipode_expansion_inverts_plain_expansion(self, kind):
        # the antipode pairing inverts the counterterm series exactly
        for seed in range(5):
            c = make_toy_character(Tag.HE, seed=seed, kind=kind, d=4, max_order=5)
            assert z2_series(c, 5) * z2_factor(c, 5) == one(5)

    def test_ward_substitution(self):
        assert ward_alpha0(one(4)) == indeterminate(4)
        c = Fraction(2, 3)
        z3 = Series([Fraction(1), -c, Fraction(0), Fraction(0)])
        alpha0 = ward_alpha0(z3)
        # geometric series: alpha + c alpha^2 + c^2 alpha^3 + ...
        assert list(alpha0.coeffs) == [0, 1, c, c * c]
        assert alpha0.is_gc()


class TestRenormalizedCoefficients:
    def test_photon_small_trees(self):
        u = make_toy_character(Tag.HGAMMA, seed=1, max_order=3)
        c = make_toy_character(Tag.HALPHA, seed=2, max_order=3)
        assert renormalized_photon(u, c, E) == Fraction(1)
        assert renormalized_photon(u, c, Y) == u.letter(Y) + c.letter(E)
        assert renormalized_photon(u, c, DEUXUN) == (
            u.letter(DEUXUN)
            + 2 * u.letter(Y) * c.letter(E)
            + c.letter(E) * c.letter(E)
        )

    def test_electron_small_trees(self):
        u = make_toy_character(Tag.HE, seed=1, max_order=3)
        cg = make_toy_character(Tag.HALPHA, seed=2, max_order=3)
        ce = make_toy_character(Tag.HE, seed=3, max_order=3)
        assert renormalized_electron(u, cg, ce, E) == Fraction(1)
        assert renormalized_electron(u, cg, ce, Y) == u.letter(Y) - ce.letter(Y)
        s = hopf.antipode_p_e
        expect = (
            u.letter(DEUXDEUX)
            + u.letter(Y) * (-ce.letter(Y))
            + evaluate(ce, s(embed_tree(Tag.HE, DEUXDEUX)))
        )
        assert renormalized_electron(u, cg, ce, DEUXDEUX) == expect

    def test_zero_counterterms_give_back_bare(self):
        u = make_toy_character(Tag.HGAMMA, seed=7, max_order=4)
        ue = make_toy_character(Tag.HE, seed=7, max_order=4)
        cg = zero_character(Tag.HALPHA)
        ce = zero_character(Tag.HE)
        for t in all_trees_up_to(4):
            assert renormalized_photon(u, cg, t) == (
                Fraction(1) if t is E else u.letter(t)
            )
            assert renormalized_electron(ue, cg, ce, t) == (
                Fraction(1) if t is E else ue.letter(t)
            )


class TestDysonConsistency:
    def test_scalar_seeds(self):
        for seed in range(8):
            u = make_toy_character(Tag.HGAMMA, seed, max_order=4)
            ue = make_toy_character(Tag.HE, seed, max_order=4)
            cg = make_toy_character(Tag.HALPHA, seed + 100, max_order=4)
            ce = make_toy_character(Tag.HE, seed + 200, max_order=4)
            assert dyson_check_photon(u, cg, 4).ok
            assert dyson_check_electron(ue, cg, ce, 4).ok

    def test_matrix_amplitudes(self):
        for seed in range(3):
            u = make_toy_character(Tag.HGAMMA, seed, kind="matrix", d=4, max_order=3)
            ue = make_toy_character(Tag.HE, seed, kind="matrix", d=4, max_order=3)
            cg = make_toy_character(Tag.HALPHA, seed + 100, max_order=3)
            ce = make_toy_character(Tag.HE, seed + 200, max_order=3)
            assert dyson_check_photon(u, cg, 3).ok
            assert dyson_check_electron(ue, cg, ce, 3).ok

    def test_report_flags_broken_factor(self):
        u = make_toy_character(Tag.HGAMMA, 1, max_order=3)
        cg = make_toy_character(Tag.HALPHA, 2, max_order=3)
        good = dyson_check_photon(u, cg, 3)
        assert good.ok and good.first_failure is None
        # sabotage one counterterm after building the renormalized side:
        # recompute with a different character so the sides disagree
        cg_other = make_toy_character(Tag.HALPHA, 3, max_order=3)
        z3 = z3_series(cg_other, 3)
        bare = assemble_series(u.letter, 3, Fraction(1))
        mixed = assemble_series(
            lambda t: renormalized_photon(u, cg, t), 3, Fraction(1)
        )
        residual = mixed * z3 - bare.compose(ward_alpha0(z3))
        assert any(residual[k] != 0 for k in range(4))

    @pytest.mark.parametrize("kind", ["scalar", "matrix"])
    def test_shared_side_gives_the_separate_reports(self, monkeypatch, kind):
        # Whole, and with one charge coaction pair dropped, which breaks both
        # reports at its order: one shared charge side gives the reports
        # that each report's own side gives.
        u, ue, cg, ce = _coaction_characters(kind, n=4)
        for dropped in (False, True):
            if dropped:
                _drop_one_coaction_pair(monkeypatch, (u, cg), 3)
            photon, electron = renorm.dyson_reports(u, ue, cg, ce, 4)
            assert photon.to_json() == dyson_check_photon(u, cg, 4).to_json()
            assert electron.to_json() == dyson_check_electron(ue, cg, ce, 4).to_json()
            assert photon.ok is electron.ok is not dropped
            if dropped:
                assert photon.first_failure == electron.first_failure == 3

    def test_shared_reports_refuse_mismatched_tags(self):
        u, ue, cg, ce = _coaction_characters("scalar", n=2)
        assert all(r.ok for r in renorm.dyson_reports(u, ue, cg, ce, 2))
        for args in [(ue, ue, cg, ce), (u, u, cg, ce), (u, ue, ce, ce), (u, ue, cg, cg)]:
            with pytest.raises(ValueError):
                renorm.dyson_reports(*args, 2)

    def test_reports_refuse_mismatched_tags(self):
        u, ue, cg, ce = _coaction_characters("scalar", n=2)
        for args in [(ue, cg), (u, u), (u, ce)]:
            with pytest.raises(ValueError):
                dyson_check_photon(*args, 2)
        for args in [(u, cg, ce), (ue, ce, ce), (ue, cg, cg), (ue, cg, u)]:
            with pytest.raises(ValueError):
                dyson_check_electron(*args, 2)

    def test_report_json_shape(self):
        u = make_toy_character(Tag.HGAMMA, 1, max_order=2)
        cg = make_toy_character(Tag.HALPHA, 2, max_order=2)
        data = dyson_check_photon(u, cg, 2).to_json()
        assert data["status"] == "ok"
        assert set(data["per_order_residuals"]) == {"0", "1", "2"}
