"""Sweep machinery and negative controls: every structure map, when
corrupted, makes some sweep fail with a counterexample message."""

import ast
import re

import pytest

from treehopf import checks, trees
from treehopf.algebra import COMPOSITES, MAPS, Tag


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


def _suite_names() -> set[str]:
    with pytest.raises(KeyError) as exc:
        checks.run_suite("no-such-suite")
    return set(ast.literal_eval(re.search(r"choose from (\[.*?\])", exc.value.args[0]).group(1)))


@pytest.mark.parametrize("suite", ["all", "coassoc", "counts"])
def test_negative_order_refused(suite):
    with pytest.raises(ValueError, match="at least 0"):
        checks.run_suite(suite, order=-1)
    assert all(r.ok for r in checks.run_suite(suite, order=0))


def test_controls_cover_every_suite():
    assert set(SUITE_CONTROLS) == _suite_names()


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
    assert set(COMPOSITES) == set(COMPOSITE_PARTS)


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
