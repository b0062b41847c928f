"""Tree combinatorics: grafting, the two associative products, canonical
enumeration, naming, and text round-trips."""

import ast
import gc
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from treehopf import trees
from treehopf.algebra import Tag, embed_tree
from treehopf.trees import (
    Tree,
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
    catalan,
    clip,
    compose_over,
    compose_under,
    decompose_over,
    decompose_under,
    enumerate_trees,
    graft,
    iter_rendered,
    number_text,
    over,
    parse,
    read_name,
    render,
    tree_index,
    tree_name,
    tree_unrank,
    un_graft,
    under,
    v_wrap,
)


def nested_key(t: Tree):
    """The canonical order as a nested tuple: order, then the larger left
    order first, then the left subtrees, then the right ones."""
    if t is E:
        return (0,)
    return (t.order, -t.left.order, nested_key(t.left), nested_key(t.right))


def trees_of_order(max_order: int):
    """Hypothesis strategy drawing a single tree of order <= max_order."""
    pool = all_trees_up_to(max_order)
    return st.sampled_from(pool)


class TestGraft:
    def test_root_has_order_zero(self):
        assert E.order == 0

    def test_graft_order(self):
        assert graft(E, E) is Y
        assert Y.order == 1
        assert graft(Y, E).order == 2

    def test_interning_gives_identity(self):
        assert graft(graft(E, E), E) is graft(Y, E)

    def test_un_graft_inverts_graft(self):
        assert un_graft(TROISQUATRE) == (E, DEUXUN)
        with pytest.raises(ValueError):
            un_graft(E)

    def test_v_wrap(self):
        assert v_wrap(E) is Y
        assert v_wrap(DEUXDEUX) is TROISCINQ

    @given(trees_of_order(4), trees_of_order(4))
    def test_un_graft_roundtrip(self, a, b):
        assert un_graft(graft(a, b)) == (a, b)


class TestOverUnder:
    def test_known_products(self):
        assert over(DEUXDEUX, Y) is TROISDEUX
        assert over(Y, DEUXDEUX) is TROISTROIS
        assert under(DEUXUN, Y) is TROISTROIS
        assert under(Y, DEUXUN) is TROISQUATRE

    def test_units(self):
        assert over(TROISUN, E) is TROISUN
        assert over(E, TROISUN) is TROISUN
        assert under(TROISUN, E) is TROISUN
        assert under(E, TROISUN) is TROISUN

    @given(trees_of_order(3), trees_of_order(3), trees_of_order(3))
    def test_associativity(self, a, b, c):
        assert over(over(a, b), c) is over(a, over(b, c))
        assert under(under(a, b), c) is under(a, under(b, c))

    @given(trees_of_order(4), trees_of_order(4))
    def test_order_additivity(self, a, b):
        assert over(a, b).order == a.order + b.order
        assert under(a, b).order == a.order + b.order

    def test_graft_via_over_and_under(self):
        # t^l v t^r = t^l / (e v t^r) = (t^l v e) \ t^r
        for t in all_trees_up_to(4):
            if t is E:
                continue
            l, r = un_graft(t)
            assert over(l, v_wrap(r)) is t
            assert under(graft(l, E), r) is t


class TestDecompositions:
    def test_over_generators(self):
        # maximal factorization into wedge-left-root factors
        assert decompose_over(TROISUN) == [E, E, E]
        assert decompose_over(TROISCINQ) == [DEUXDEUX]
        assert decompose_over(TROISDEUX) == [Y, E]

    def test_under_generators(self):
        assert decompose_under(TROISCINQ) == [E, E, E]
        assert decompose_under(TROISUN) == [DEUXUN]

    @given(trees_of_order(5))
    def test_over_roundtrip(self, t):
        assert compose_over(decompose_over(t)) is t

    @given(trees_of_order(5))
    def test_under_roundtrip(self, t):
        assert compose_under(decompose_under(t)) is t

    def test_freeness_of_over(self):
        # distinct factor sequences give distinct trees: the count of trees
        # of order n equals the count of compositions into generator orders
        for n in range(7):
            seen = {compose_over(list(ws)) for ws in _generator_words(n)}
            assert len(seen) == catalan(n)


def _generator_words(n):
    """All sequences of generator arguments with total weight n."""
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for u in enumerate_trees(k - 1):
            for rest in _generator_words(n - k):
                yield (u,) + rest


class TestEnumeration:
    def test_catalan_small(self):
        assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_catalan_twelve(self):
        assert catalan(12) == 208012

    def test_counts_match(self):
        for n in range(9):
            assert len(enumerate_trees(n)) == catalan(n)

    def test_order_two_listing(self):
        assert enumerate_trees(2) == [DEUXUN, DEUXDEUX]

    def test_order_three_listing(self):
        assert enumerate_trees(3) == [
            TROISUN,
            TROISDEUX,
            TROISTROIS,
            TROISQUATRE,
            TROISCINQ,
        ]

    def test_pool_is_keyed_by_subtrees(self):
        all_trees_up_to(5)
        assert all(key == (t.left, t.right) for key, t in trees._pool.items())

    def test_trees_sorted_by_shrinking_left_order(self):
        for n in range(1, 7):
            orders = [t.left.order for t in enumerate_trees(n)]
            assert orders == sorted(orders, reverse=True)

    def test_levels_in_sort_key_order(self):
        for n in range(11):
            keys = [t.sort_key() for t in enumerate_trees(n)]
            assert keys == sorted(keys), n

    def test_index_is_position(self):
        for n in range(10):
            for k, t in enumerate(enumerate_trees(n), start=1):
                assert tree_index(t) == (n, k)
                assert t.sort_key() == (n, k - 1)

    def test_flat_key_orders_as_the_nested_key(self):
        # Second route: the nested-tuple key compares subtrees recursively.
        shuffled = all_trees_up_to(9)
        random.Random(9).shuffle(shuffled)
        by_nested = sorted(shuffled, key=nested_key)
        assert sorted(shuffled, key=Tree.sort_key) == by_nested == all_trees_up_to(9)

    def test_names(self):
        assert tree_name(E) == "Y0.1"
        assert tree_name(Y) == "Y1.1"
        assert tree_name(TROISTROIS) == "Y3.3"


@pytest.fixture
def collector():
    """Restore the cyclic collector's state after the test, pass or fail."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def fresh_levels(monkeypatch):
    """Intern tables holding only order 0, so that _level has levels to
    build: the level cache and its block offsets list the root tree alone,
    and the pool is empty, so every other tree is built afresh."""
    monkeypatch.setattr(trees, "_enum_cache", [[E]])
    monkeypatch.setattr(trees, "_offsets", [[]])
    monkeypatch.setattr(trees, "_pool", {})


class TestCollectorPause:
    def test_enabled_collector_stays_enabled(self, collector, fresh_levels):
        gc.enable()
        assert len(trees._level(7)) == catalan(7)
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, collector, fresh_levels):
        gc.disable()
        assert len(trees._level(7)) == catalan(7)
        assert not gc.isenabled()

    def test_failed_build_restores_collector(self, collector, fresh_levels, monkeypatch):
        trees._level(5)
        levels = len(trees._enum_cache)
        pooled = tree_unrank(6, 100)
        pool = dict(trees._pool)
        real_tree, calls = trees.Tree, 0

        def failing_tree(*args):
            nonlocal calls
            calls += 1
            if calls > 50:  # order 6 has 132 trees
                raise RuntimeError("construction failed")
            return real_tree(*args)

        monkeypatch.setattr(trees, "Tree", failing_tree)
        gc.enable()
        with pytest.raises(RuntimeError, match="construction failed"):
            trees._level(6)
        assert gc.isenabled()
        assert len(trees._enum_cache) == levels
        assert trees._pool == pool
        monkeypatch.setattr(trees, "Tree", real_tree)
        level = trees._level(6)
        # Second route: unranking builds each tree of order 6 on its own.
        expected = [tree_unrank(6, k) for k in range(1, catalan(6) + 1)]
        assert len(level) == len(expected)
        assert all(t is u for t, u in zip(level, expected))
        # The tree pooled before the failed build is the one listed.
        assert level[99] is pooled


class TestInterning:
    """A listed level is the intern table of its order; the pool holds only
    the trees of orders not yet listed."""

    def test_pool_holds_no_listed_order(self, fresh_levels):
        unlisted = [tree_unrank(n, k) for n in (3, 5, 7) for k in (1, 2, catalan(n))]
        trees._level(5)
        assert {t.order for t in trees._pool.values()} == {6, 7}
        assert {tree_unrank(7, k) for k in (1, 2, catalan(7))} <= set(trees._pool.values())
        assert all(t in trees._level(t.order) for t in unlisted if t.order <= 5)

    def test_pool_holds_no_listed_order_of_the_process(self):
        all_trees_up_to(6)
        comb = tree_unrank(7, 1)
        assert over(comb, comb).order == 14
        listed = len(trees._enum_cache) - 1
        assert all(t.order > listed for t in trees._pool.values())

    def test_graft_reads_a_listed_level(self):
        for t in all_trees_up_to(9):
            if t is not E:
                assert graft(t.left, t.right) is t

    def test_pooled_tree_is_listed_as_itself(self, fresh_levels):
        parsed = [parse(text) for text in iter_rendered(6)]
        assert all(t.rank is None for t in parsed)
        # Ranked lazily, from the pooled subtrees up, before the level exists.
        assert [t.sort_key() for t in parsed] == [(6, k) for k in range(catalan(6))]
        level = trees._level(6)
        assert all(u is t for u, t in zip(level, parsed))
        assert len(level) == len(parsed)
        assert trees._pool == {}


class TestNoGarbageCycles:
    """Trees and their texts are freed by reference counting alone."""

    @pytest.mark.parametrize("n", [3, 5, 10])
    def test_exhausted_stream(self, collector, n):
        gc.collect()
        gc.disable()
        assert sum(1 for _ in iter_rendered(n)) == catalan(n)
        assert gc.collect() == 0

    def test_enumeration(self, collector, fresh_levels):
        gc.collect()
        gc.disable()
        assert len(enumerate_trees(8)) == catalan(8)
        assert gc.collect() == 0

    def test_parse(self, collector):
        gc.collect()
        gc.disable()
        assert parse("((e v e) v e)") is DEUXUN
        assert parse("Y3.4") is TROISQUATRE
        try:
            parse("(e v e")
        except ValueError:
            pass
        assert gc.collect() == 0


class TestStream:
    def test_matches_rendered_levels(self):
        # Second route: the text stream against the interned enumerator.
        for n in range(10):
            assert list(iter_rendered(n)) == [render(t) for t in trees._level(n)], n

    def test_order_n_is_a_generator(self):
        texts = iter_rendered(3)
        assert iter(texts) is texts
        assert next(texts) == "(((e v e) v e) v e)"

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            iter_rendered(-1)

    def test_holds_neither_of_the_two_largest_lower_levels(self):
        # Held, the 58,786 texts of order 11 alone take about 7 MB and those
        # of order 10 about 2 MB; the whole order-12 stream peaks near 0.7 MB.
        tracemalloc.start()
        try:
            assert sum(1 for _ in iter_rendered(12)) == catalan(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestUnrank:
    def test_inverts_tree_index(self):
        for t in all_trees_up_to(9):
            assert tree_unrank(*tree_index(t)) is t

    def test_seeded_order_twelve_ranks(self):
        rng = random.Random(12)
        for k in (rng.randint(1, catalan(12)) for _ in range(2000)):
            assert tree_index(tree_unrank(12, k)) == (12, k)

    def test_out_of_range(self):
        for n, k in [(3, 0), (3, 6), (0, 2), (-1, 1)]:
            with pytest.raises(ValueError, match="no tree named"):
                tree_unrank(n, k)

    @pytest.mark.parametrize(
        "n, k, name",
        [
            (3, 6, "Y3.6"),
            (3, 10**4000, "Y3.a 4001-digit number"),
            (3, 10**5000, "Y3.a 5001-digit number"),
            (3, -(10**5000), "Y3.a negative 5001-digit number"),
        ],
        ids=["small", "4001-digit", "5001-digit", "negative"],
    )
    def test_out_of_range_message(self, n, k, name):
        # More digits than Python prints from an int must not reach str().
        with pytest.raises(ValueError) as exc:
            tree_unrank(n, k)
        assert str(exc.value) == f"no tree named {name}: order 3 has 5 trees"

    def test_parse_name_builds_no_level(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = (
            "from treehopf import trees\n"
            "t = trees.parse('Y12.5')\n"
            "print(len(trees._pool), len(trees._enum_cache), *trees.tree_index(t))\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        pool, levels, n, k = map(int, out.split())
        assert pool < 1000 < catalan(12)
        assert levels == 1  # only order 0, which the module starts with
        assert (n, k) == (12, 5)


class TestText:
    def test_render_examples(self):
        assert render(E) == "e"
        assert render(Y) == "(e v e)"
        assert render(TROISCINQ) == "(e v (e v (e v e)))"

    def test_parse_examples(self):
        assert parse("(e v (e v e))") is DEUXDEUX
        assert parse("  ( e v e )  ") is Y
        assert parse("Y3.4") is TROISQUATRE

    def test_parse_rejects_garbage(self):
        for bad in ["", "(e v", "e e", "(e u e)", "Y3.9"]:
            with pytest.raises(ValueError):
                parse(bad)

    def test_error_messages(self):
        with pytest.raises(ValueError, match=r"^expected '\)' at position 6 in '\(e v e'$"):
            parse("(e v e")
        with pytest.raises(ValueError, match=r"^expected 'v' at position 3 in ' \(e u e\)'$"):
            parse(" (e u e)")
        with pytest.raises(ValueError, match=r"^trailing input at position 2 in 'e e'$"):
            parse("e e")

    COMBS = {
        "right": "(e v " * 5000 + "e" + ")" * 5000,
        "left": "(" * 5000 + "e" + " v e)" * 5000,
    }

    @pytest.mark.parametrize("side", sorted(COMBS))
    def test_parse_beyond_recursion_limit(self, side):
        t = parse(self.COMBS[side])
        assert t.order == 5000
        # A comb has 5,000 factors in one factorization and 1 in the other.
        assert len(decompose_under(t)) * len(decompose_over(t)) == 5000

    def test_bad_name_message(self):
        with pytest.raises(ValueError, match=r"^no tree named Y3\.09: order 3 has 5 trees$"):
            parse(" Y3.09 ")

    @pytest.mark.parametrize(
        "name, count",
        [("Y12.0", "208012"), ("Y50.0", "a 28-digit number of"), ("Y8000.0", "a 4811-digit number of")],
    )
    def test_long_count_is_given_by_its_digits(self, name, count):
        # C(8000) has more digits than Python prints from an int.
        with pytest.raises(ValueError) as exc:
            parse(name)
        message = str(exc.value)
        assert message == f"no tree named {name}: order {name[1:-2]} has {count} trees"
        assert len(message.splitlines()) == 1 and len(message) < 120

    @pytest.mark.parametrize("name", ["Y3." + "1" * 5000, "Y" + "1" * 5000 + ".1"], ids=["rank", "order"])
    def test_unreadable_name_is_no_tree(self, name):
        # More digits than Python converts to an int.
        with pytest.raises(ValueError) as exc:
            parse(name)
        assert str(exc.value) == f"no tree named {clip(name)}: its numbers are too long to read"

    def test_read_name(self):
        assert read_name("Y3.09") == (3, 9)
        assert read_name("Y0.1") == (0, 1)
        for text in ("(e v e)", "Y3", "Y3.1 ", "y3.1", "Y-3.1"):
            assert read_name(text) is None

    @pytest.mark.parametrize(
        "n, text",
        [
            (17, "17"),
            (10**12 - 1, "999999999999"),
            (10**12, "a 13-digit number"),
            (10**5000, "a 5001-digit number"),
            (-17, "-17"),
            (1 - 10**12, "-999999999999"),
            (-(10**12), "a negative 13-digit number"),
            (-(10**5000), "a negative 5001-digit number"),
        ],
        ids=[
            "small",
            "12-digit",
            "13-digit",
            "5001-digit",
            "negative",
            "negative-12-digit",
            "negative-13-digit",
            "negative-5001-digit",
        ],
    )
    def test_number_text(self, n, text):
        assert number_text(n) == text

    @given(trees_of_order(6))
    def test_roundtrip(self, t):
        assert parse(render(t)) is t
        assert parse(tree_name(t)) is t


def right_comb(n: int) -> Tree:
    t = E
    for _ in range(n):
        t = graft(E, t)
    return t


def left_comb(n: int) -> Tree:
    t = E
    for _ in range(n):
        t = graft(t, E)
    return t


def zigzag(n: int) -> Tree:
    """A tree whose spine turns at every node."""
    t = E
    for i in range(n):
        t = graft(t, E) if i % 2 else graft(E, t)
    return t


class TestDeepTrees:
    """Keys, indices and texts of trees deeper than the recursion limit."""

    DEEP = 3000

    def test_comb_keys(self):
        # The left comb comes first in its level, the right comb last.
        assert left_comb(self.DEEP).sort_key() == (self.DEEP, 0)
        assert right_comb(self.DEEP).sort_key() == (self.DEEP, catalan(self.DEEP) - 1)
        assert tree_index(right_comb(self.DEEP)) == (self.DEEP, catalan(self.DEEP))

    def test_zigzag_lies_between_the_combs(self):
        n, k = tree_index(zigzag(self.DEEP))
        assert n == self.DEEP and 1 < k < catalan(self.DEEP)

    @pytest.mark.parametrize("build", [left_comb, right_comb, zigzag])
    def test_render(self, build):
        t = build(self.DEEP)
        text = render(t)
        assert len(text) == 6 * self.DEEP + 1
        assert str(t) == text and repr(t) == f"Tree({text})"
        assert parse(text) is t

    @pytest.mark.parametrize("build", [left_comb, right_comb, zigzag])
    def test_unrank_inverts_index(self, build):
        t = build(500)
        assert tree_unrank(*tree_index(t)) is t

    def test_last_tree_of_a_deep_level_round_trips_fast(self):
        # The right comb is the last tree of its level: its blocks are walked
        # from the near end, one product a node.
        t = right_comb(2000)
        start = time.perf_counter()
        assert tree_unrank(*tree_index(t)) is t
        assert time.perf_counter() - start < 1

    def test_long_words_are_grafted_back(self):
        # Both factorizations are read back from 3,000-letter words, deeper
        # than the recursion limit.
        rng = random.Random(self.DEEP)
        letters = all_trees_up_to(3)
        us = [rng.choice(letters) for _ in range(self.DEEP)]
        assert decompose_under(compose_under(us)) == us
        assert decompose_over(compose_over(us)) == us

    def test_charge_word_of_a_deep_generator(self):
        c = right_comb(1500)
        u = graft(c, c)
        assert embed_tree(Tag.HALPHA, v_wrap(u)).terms == {((u,),): 1}


def recursive_functions(source: str) -> set:
    """The functions and methods of a module that call themselves, by name or
    through the ``left`` or ``right`` attribute of a tree."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                found.add(fn.name)
            elif (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Attribute)
                and f.value.attr in ("left", "right")
            ):
                found.add(fn.name)
    return found


class TestNoRecursion:
    def test_only_over_and_under_recurse(self):
        # Their depth is the spine length of an argument, which the CLI bounds.
        with open(trees.__file__) as f:
            assert recursive_functions(f.read()) == {"over", "under"}

    def test_both_kinds_of_self_call_are_found(self):
        source = (
            "class T:\n"
            "    def key(self):\n"
            "        return (self.left.key(), self.right.key())\n"
            "def size(t):\n"
            "    return 0 if t is None else size(t.left) + 1\n"
            "def flat(t):\n"
            "    return [t]\n"
        )
        assert recursive_functions(source) == {"key", "size"}
