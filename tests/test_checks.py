"""Sweep machinery and negative controls: every structure map, when
corrupted, makes some sweep fail with a counterexample message."""

import json
from pathlib import Path

import pytest

from treehopf import checks, hopf, trees
from treehopf.algebra import MAPS, Tag, from_word, word_degree
from treehopf.cli import main

ROOT = Path(__file__).resolve().parent.parent

# map name -> the [FAIL] lines of `check all --order 3 --corrupt NAME`:
# every counterexample a damaged map prints, pinned so that a rewrite of the
# sweeps cannot change one
CORRUPTED_SWEEPS = json.loads((ROOT / "tests" / "corrupted_sweeps.json").read_text())

# suite -> its verdict lines in `check all`, as the benchmark expects them
BENCHMARK_SWEEP = json.loads((ROOT / "perfbench" / "expected.json").read_text())["sweep"]


# map name -> a suite that must notice when that map drops a term
DETECTORS = {
    "delta-p-gamma": "coassoc",
    "delta-p-e": "coassoc",
    "delta-alpha": "coassoc",
    "delta-alpha-nc": "coassoc",
    "delta-small": "coaction",
    "delta-small-nc": "coaction",
    "antipode-p-gamma": "antipode",
    "antipode-p-e": "antipode",
    "antipode-alpha": "antipode",
    "antipode-alpha-nc": "antipode",
    "delta-gamma-coaction": "coaction",
    "delta-e-coaction": "coaction",
    "delta-e": "qed",
    "delta-gamma": "photon",
    "sigma": "intertwine",
    "qed-coproduct": "qed",
    "qed-antipode": "qed",
}


# suite -> a map whose dropped term that suite must notice (the inverse of
# DETECTORS: every suite of `check all` can fail)
SUITE_CONTROLS = {
    "coassoc": "delta-p-gamma",
    "counit": "delta-p-e",
    "antipode": "antipode-p-e",
    "hopf-alpha-trees": "antipode-alpha",
    "coaction": "delta-small",
    "compat": "delta-gamma-coaction",
    "qed": "qed-coproduct",
    "intertwine": "sigma",
    "photon": "delta-gamma",
    "primitive": "delta-alpha",
    "counts": "delta-p-gamma",
    "crosscheck": "delta-e-coaction",
}


# composite -> (the suite that sweeps it, the maps it is built from): a
# damaged part must reach the composite through the map set of the sweep
COMPOSITE_PARTS = {
    "delta-gamma": ("photon", ["delta-p-gamma", "delta-gamma-coaction", "sigma"]),
    "qed-coproduct": ("qed", ["delta-alpha", "delta-p-e", "delta-e-coaction"]),
    "qed-antipode": ("qed", ["antipode-p-e", "antipode-alpha", "delta-e-coaction"]),
    "delta-e": ("qed", ["delta-p-e", "delta-e-coaction"]),
}


def test_long_negative_order_is_given_by_its_digits():
    with pytest.raises(ValueError) as exc:
        checks.run_suite("all", order=-(10**5000))
    assert str(exc.value) == "the order must be at least 0, not a negative 5001-digit number"


@pytest.mark.parametrize("suite", ["all", "coassoc", "counts"])
def test_negative_order_refused(suite):
    with pytest.raises(ValueError, match="at least 0"):
        checks.run_suite(suite, order=-1)
    assert all(r.ok for r in checks.run_suite(suite, order=0))


def test_controls_cover_every_suite():
    assert set(SUITE_CONTROLS) == set(checks.SUITES)


def test_unknown_suite_lists_the_suites(capsys):
    with pytest.raises(KeyError) as exc:
        checks.run_suite("no-such-suite")
    message = f"unknown suite 'no-such-suite'; choose from {sorted(checks.SUITES)} or 'all'"
    assert exc.value.args[0] == message
    assert main(["check", "no-such-suite"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_suites_are_the_benchmark_suites():
    assert list(checks.SUITES) == list(BENCHMARK_SWEEP)
    for suite, sweeps in checks.SUITES.items():
        assert len(sweeps) == len(BENCHMARK_SWEEP[suite]), suite


def test_every_check_is_in_a_suite():
    public = {getattr(checks, name) for name in dir(checks) if name.startswith("check_")}
    swept = {check for sweeps in checks.SUITES.values() for check, _, _ in sweeps}
    assert public == swept


def test_corrupted_sweeps_cover_every_map():
    assert list(CORRUPTED_SWEEPS) == list(MAPS)
    assert sum(map(len, CORRUPTED_SWEEPS.values())) == 64


@pytest.mark.parametrize("name", list(CORRUPTED_SWEEPS))
def test_corrupted_sweeps_are_frozen(name):
    results = checks.run_suite("all", 3, checks.corrupt_map(MAPS, name))
    assert [r.line() for r in results if not r.ok] == CORRUPTED_SWEEPS[name]


@pytest.mark.parametrize("suite", sorted(SUITE_CONTROLS))
def test_every_suite_can_fail(suite):
    maps = checks.corrupt_map(MAPS, SUITE_CONTROLS[suite])
    results = checks.run_suite(suite, order=3, maps=maps)
    assert any(not r.ok for r in results), f"{suite} ignores a corrupted {SUITE_CONTROLS[suite]}"


@pytest.mark.parametrize("name", ["delta-p-gamma", "delta-p-e", "delta-e-coaction", "delta-e"])
def test_crosscheck_reads_its_direct_routes_from_the_maps(name):
    (result,) = checks.run_suite("crosscheck", order=3, maps=checks.corrupt_map(MAPS, name))
    assert not result.ok and "mismatch" in result.detail


def test_detectors_cover_every_map():
    assert set(DETECTORS) == set(MAPS)


def test_clean_suites_pass():
    for suite in set(DETECTORS.values()):
        results = checks.run_suite(suite, order=3)
        assert all(r.ok for r in results), suite


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_corrupting_map_fails_detector(name):
    maps = checks.corrupt_map(MAPS, name)
    results = checks.run_suite(DETECTORS[name], order=3, maps=maps)
    failing = [r for r in results if not r.ok]
    assert failing, f"corrupting {name} went unnoticed"
    assert failing[0].detail  # counterexample description present
    assert "[FAIL]" in failing[0].line()


def test_every_composite_has_its_parts_listed():
    assert {name for name, f in MAPS.items() if hasattr(f, "parts")} == set(COMPOSITE_PARTS)


@pytest.mark.parametrize(
    "composite, part",
    [(composite, part) for composite, (_, parts) in COMPOSITE_PARTS.items() for part in parts],
)
def test_corrupting_a_part_fails_its_composite(composite, part):
    suite = COMPOSITE_PARTS[composite][0]
    results = checks.run_suite(suite, order=3, maps=checks.corrupt_map(MAPS, part))
    assert any(not r.ok for r in results), f"{suite} ignores a corrupted {part} inside {composite}"


def test_corruption_rebuilds_the_composites_over_the_new_set():
    maps = checks.corrupt_map(MAPS, "delta-p-e")
    x = checks.basis_elements(Tag.HE, 3)[-1]
    assert maps["delta-e"](x) != MAPS["delta-e"](x)
    # a composite that does not use the damaged map gives the same results
    for y in checks.basis_elements(Tag.HGAMMA, 3):
        assert maps["delta-gamma"](y) == MAPS["delta-gamma"](y)
    assert maps["delta-gamma"] is not MAPS["delta-gamma"]


def test_corrupted_map_keeps_the_input_tags():
    for name in MAPS:
        damaged = checks.corrupt_map(MAPS, name)[name]
        assert damaged.tags == MAPS[name].tags and callable(damaged.word), name


def test_corrupt_unknown_map_rejected():
    with pytest.raises(KeyError):
        checks.corrupt_map(MAPS, "nope")


def test_run_all_collects_every_suite(capsys):
    results = checks.run_suite("all", order=2)
    assert len(results) >= 25
    assert all(r.ok for r in results)


def test_catalan_check_sees_a_short_level(monkeypatch):
    # Negative control: the enumerator loses the last text of order 7.
    stream = trees.iter_rendered

    def short(n):
        texts = list(stream(n))
        return iter(texts[:-1] if n == 7 else texts)

    monkeypatch.setattr(trees, "iter_rendered", short)
    result = checks.check_catalan(9)
    assert not result.ok
    assert result.detail == "|Y_7| = 428 != 429"


# tag -> the number of basis words of each degree 0..7: the free algebras on
# trees of each order >= 1 have 1/(2 - C(x)), the binomials (2n-1 choose n),
# the commutative charge algebra prod (1 - x^(n+1))^(-C(n)), and its
# noncommutative lift C(x).
GRADED_DIMENSIONS = {
    Tag.HGAMMA: [1, 1, 3, 10, 35, 126, 462, 1716],
    Tag.HE: [1, 1, 3, 10, 35, 126, 462, 1716],
    Tag.HALPHA: [1, 1, 2, 4, 10, 26, 77, 235],
    Tag.HALPHA_NC: [1, 1, 2, 5, 14, 42, 132, 429],
}


def graded_dimensions(tag: Tag, n: int) -> list[int]:
    counts = [0] * (n + 1)
    for w in checks.basis_words(tag, n):
        counts[word_degree(tag, w)] += 1
    return counts


@pytest.mark.parametrize("tag", list(GRADED_DIMENSIONS), ids=lambda tag: tag.value)
def test_graded_dimensions_of_the_basis(tag):
    assert graded_dimensions(tag, 7) == GRADED_DIMENSIONS[tag]


def test_charge_dimensions_need_the_normal_form(monkeypatch):
    # Negative control: with every tree's key equal, no word of the
    # commutative algebra is refused as unsorted, and its counts grow.
    monkeypatch.setattr(trees.Tree, "sort_key", lambda t: (0, 0))
    assert graded_dimensions(Tag.HALPHA, 7) != GRADED_DIMENSIONS[Tag.HALPHA]


def test_charge_algebra_reads_its_commutativity_from_its_tag(monkeypatch):
    # Negative control of the tag record: declared noncommutative, the
    # charge algebra keeps words unsorted and its basis counts become those
    # of the noncommutative lift, the Catalan numbers.
    monkeypatch.setattr(Tag.HALPHA, "commutative", False)
    assert graded_dimensions(Tag.HALPHA, 7) == GRADED_DIMENSIONS[Tag.HALPHA_NC]
    assert graded_dimensions(Tag.HALPHA, 7) != GRADED_DIMENSIONS[Tag.HALPHA]
    word = (trees.DEUXUN, trees.Y)
    assert from_word(Tag.HALPHA, word).terms == {(word,): 1}


def test_sweeps_and_letters_read_the_antipode_named_by_the_tag(monkeypatch):
    # Negative control of the tag record: the electron algebra's antipode
    # pointed at the photon one is refused by the sweep, whose letters are
    # already cached, and, once the cache is empty, by the letter recursion:
    # each reads the name from the tag.
    monkeypatch.setattr(hopf, "_antipode_letter_cache", {})
    assert checks.check_antipode(Tag.HE, 2).ok
    monkeypatch.setattr(Tag.HE, "antipode", "antipode-p-gamma")
    with pytest.raises(ValueError, match="expected a Tag.HGAMMA element"):
        checks.check_antipode(Tag.HE, 2)
    hopf._antipode_letter_cache.clear()
    with pytest.raises(ValueError, match="expected a Tag.HGAMMA element"):
        MAPS["antipode-p-e"](from_word(Tag.HE, (trees.Y,)))
