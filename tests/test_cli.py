"""Command-line front end: enumeration, map evaluation, sweeps, demo, and
exit codes."""

import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from treehopf import cli, trees
from treehopf.algebra import Element, Tag, TensorElement, lift_linear
from treehopf.cli import (
    CHECK_MAX_ORDER,
    ENUM_MAX_ORDER,
    MAP_MAX_ORDER,
    RENORM_MAX_D,
    RENORM_MAX_ORDER,
    format_output,
    main,
)
from treehopf.trees import DEUXDEUX, DEUXUN, Y, clip, enumerate_trees, render


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnum:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "enum", "2")
        assert code == 0
        assert out.splitlines() == [
            "Y2.1  ((e v e) v e)",
            "Y2.2  (e v (e v e))",
        ]

    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enum", "12", "--count-only")
        assert code == 0
        assert out.strip() == "208012"

    def test_count_only_counts_the_enumeration(self, capsys):
        for n in range(11):
            code, out, _ = run(capsys, "enum", str(n), "--count-only")
            assert code == 0
            assert out == f"{len(enumerate_trees(n))}\n"

    def test_count_only_counts_the_stream(self, capsys, monkeypatch):
        # Not the closed form: a short stream gives a short count.
        monkeypatch.setattr(cli, "iter_rendered", lambda n: iter(["e"] * 3))
        code, out, _ = run(capsys, "enum", "5", "--count-only")
        assert code == 0
        assert out == "3\n"

    def test_listing_renders_the_enumeration(self, capsys):
        code, out, _ = run(capsys, "enum", "6")
        assert code == 0
        want = [f"Y6.{k}  {render(t)}" for k, t in enumerate(enumerate_trees(6), start=1)]
        assert out.splitlines() == want

    @pytest.mark.parametrize("n", [ENUM_MAX_ORDER + 1, -1])
    def test_order_out_of_bounds(self, capsys, n):
        for argv in (["enum", str(n)], ["enum", str(n), "--count-only"]):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_bound_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["enum", "--help"])
        assert f"0 to {ENUM_MAX_ORDER}" in capsys.readouterr().out


class TestClosedPipe:
    def test_reader_closing_early_leaves_stderr_empty(self):
        # Order 10 lists about 600 kB, more than a pipe buffers, so the
        # writer is still writing when the reader closes after one line.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "treehopf.cli", "enum", "10"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
        assert first == b"Y10.1  " + render(enumerate_trees(10)[0]).encode() + b"\n"
        assert err == b""


HALF = Fraction(1, 2)


class TestFormatOutput:
    """Golden renderings of ``repr`` and the ``ascii``/``latex`` formats, on
    hand-built combinations with coefficients 1, -1, 2, -2, 1/2 and -1/2:
    structure maps have integer coefficients, so only these reach the
    ``\\frac`` branch."""

    ELEMENT = Element(
        Tag.HE,
        {(): HALF, (Y,): 1, (DEUXUN,): -1, (DEUXDEUX,): 2, (Y, Y): -2, (Y, DEUXUN): -HALF},
    )
    TENSOR = TensorElement(
        (Tag.HE, Tag.HALPHA),
        {
            ((), ()): -HALF,
            ((Y,), ()): 1,
            ((), (Y,)): -1,
            ((Y,), (Y,)): HALF,
            ((DEUXUN,), (Y,)): 2,
            ((Y, Y), (Y, Y)): -2,
        },
    )
    CASES = [
        (
            ELEMENT,
            "1/2*1 + (e v e) - 1*((e v e) v e) + 2*(e v (e v e)) - 2*(e v e)*(e v e)"
            " - 1/2*(e v e)*((e v e) v e)",
            "1/2*1 + (e v e) - ((e v e) v e) + 2*(e v (e v e)) - 2*(e v e)*(e v e)"
            " - 1/2*(e v e)*((e v e) v e)",
            "\\frac{1}{2} 1 + (e v e) - ((e v e) v e) + 2 (e v (e v e))"
            " - 2 (e v e) \\cdot (e v e) - \\frac{1}{2} (e v e) \\cdot ((e v e) v e)",
        ),
        (
            TENSOR,
            "-1/2*[1 (x) 1] - 1*[1 (x) (e v e)] + [(e v e) (x) 1] + 1/2*[(e v e) (x) (e v e)]"
            " + 2*[((e v e) v e) (x) (e v e)] - 2*[(e v e)*(e v e) (x) (e v e)*(e v e)]",
            "-1/2*1 (x) 1 - 1 (x) (e v e) + (e v e) (x) 1 + 1/2*(e v e) (x) (e v e)"
            " + 2*((e v e) v e) (x) (e v e) - 2*(e v e)*(e v e) (x) (e v e)*(e v e)",
            "-\\frac{1}{2} 1 \\otimes 1 - 1 \\otimes (e v e) + (e v e) \\otimes 1"
            " + \\frac{1}{2} (e v e) \\otimes (e v e) + 2 ((e v e) v e) \\otimes (e v e)"
            " - 2 (e v e) \\cdot (e v e) \\otimes (e v e) \\cdot (e v e)",
        ),
        (Element(Tag.HE, {(Y,): -1}), "-1*(e v e)", "-(e v e)", "-(e v e)"),
        (Element(Tag.HE, {(Y,): -HALF}), "-1/2*(e v e)", "-1/2*(e v e)", "-\\frac{1}{2} (e v e)"),
        (Element(Tag.HE, {(): 1}), "1", "1", "1"),
        (Element(Tag.HE), "0", "0", "0"),
        (TensorElement((Tag.HE, Tag.HE)), "0", "0", "0"),
    ]

    @pytest.mark.parametrize("x, want_repr, want_ascii, want_latex", CASES)
    def test_golden(self, x, want_repr, want_ascii, want_latex):
        assert repr(x) == want_repr
        assert format_output(x, "ascii") == want_ascii
        assert format_output(x, "latex") == want_latex

    @pytest.mark.parametrize(
        "argv",
        [
            ["map", "delta-gamma", "Y3.1", "--format", "json"],
            ["map", "antipode-p-e", "Y3.5", "--format", "json"],
            ["renorm", "--order", "3"],
            ["renorm", "--order", "2", "--ring", "matrix", "--d", "2"],
        ],
        ids=["map-tensor", "map-element", "renorm-scalar", "renorm-matrix"],
    )
    def test_json_is_what_json_dumps_indents(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize(
        "data", [{}, [], {"a": {}, "b": []}, [[1, [2, []]], [None, True, 0.5]], {"é": ["☃", ""]}, "x", 0]
    )
    def test_json_edge_cases(self, data):
        assert cli._json_text(data) == json.dumps(data, indent=2)


def _never_called(*args, **kwargs):
    raise AssertionError("ran past a refused input")


def _one_error_line(err: str) -> bool:
    """Exactly one stderr line, in the form of every usage error: it starts
    'error:' and quotes no message whole, as the str of a KeyError would."""
    return len(err.splitlines()) == 1 and err.startswith("error: ") and "\"'" not in err


class TestMap:
    def test_ascii(self, capsys):
        code, out, _ = run(capsys, "map", "delta-p-e", "(e v e)")
        assert code == 0
        assert out.strip() == "1 (x) (e v e) + (e v e) (x) 1"

    def test_antipode_table_entry(self, capsys):
        code, out, _ = run(capsys, "map", "antipode-p-e", "Y2.2")
        assert code == 0
        assert out.strip() == "-(e v (e v e)) + (e v e)*(e v e)"

    def test_product_input(self, capsys):
        code, out, _ = run(capsys, "map", "delta-p-e", "(e v e)*(e v e)")
        assert code == 0

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "map", "delta-gamma", "Y2.1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["tags"] == ["Hgamma", "Halpha"]
        coeffs = sorted(term["coeff"] for term in data["terms"])
        assert coeffs == ["1", "1", "2"]

    def test_latex_format(self, capsys):
        code, out, _ = run(capsys, "map", "delta-gamma", "Y2.1", "--format", "latex")
        assert code == 0
        assert "\\otimes" in out

    def test_element_latex(self, capsys):
        code, out, _ = run(capsys, "map", "antipode-p-e", "Y2.2", "--format", "latex")
        assert code == 0
        assert out == "-(e v (e v e)) + (e v e) \\cdot (e v e)\n"

    def test_unknown_map(self, capsys):
        code, out, err = run(capsys, "map", "no-such-map", "e")
        assert code == 2
        assert out == ""
        assert _one_error_line(err) and "unknown map 'no-such-map'; choose from" in err

    @pytest.mark.parametrize("argv", [["x" * 5000, "e"], ["delta-p-e", "x" * 5000], ["delta-p-e", "x" * 5000 + "**Y1.1"]])
    def test_long_argument_is_clipped(self, capsys, argv):
        # A 5,000-character argument is quoted cut to a fixed length.
        code, out, err = run(capsys, "map", *argv)
        assert code == 2
        assert out == ""
        assert _one_error_line(err) and len(err) < 400
        assert "'" + "x" * (trees.ECHO_MAX - 3) + "...'" in err

    def test_bad_tree(self, capsys):
        code, _, err = run(capsys, "map", "delta-p-e", "(e v")
        assert code == 2

    def test_element_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(" (e v e)\n"))
        code, out, _ = run(capsys, "map", "delta-p-e", "-")
        assert code == 0
        assert out.strip() == "1 (x) (e v e) + (e v e) (x) 1"

    def test_closed_stdin_is_usage_error(self, capsys, monkeypatch):
        # With file descriptor 0 closed (`treehopf map delta-p-e - <&-`),
        # the interpreter sets sys.stdin to None.
        monkeypatch.setattr(sys, "stdin", None)
        code, out, err = run(capsys, "map", "delta-p-e", "-")
        assert code == 2
        assert out == ""
        assert err == "error: the element '-' reads stdin, which is closed\n"

    @pytest.mark.parametrize("text", ["Y1.1*", "*", "Y1.1**Y2.1", "* Y1.1"])
    def test_empty_factor(self, capsys, text):
        code, out, err = run(capsys, "map", "delta-p-e", text)
        assert code == 2
        assert out == ""
        assert err == f"error: the product {text.strip()!r} has an empty factor\n"

    def test_tensor_input_map_rejected(self, capsys):
        code, out, err = run(capsys, "map", "qed-coproduct", "e")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "map takes single-algebra elements" in err

    def test_deep_tree_is_usage_error(self, capsys):
        # The antipode of the n-deep comb has 2^(n-1) terms, one per
        # composition of n (tests/test_hopf.py::TestCombAntipode): here
        # 2^1499.  Exit 2 is the only finite answer; it comes from the
        # degree bound MAP_MAX_ORDER, before any map runs.
        comb = "(e v " * 1500 + "e" + ")" * 1500
        code, out, err = run(capsys, "map", "antipode-p-e", comb)
        assert code == 2
        assert out == ""
        assert err == f"error: map takes elements of degree up to {MAP_MAX_ORDER}; this one has degree 1500\n"

    @pytest.mark.parametrize("name", ["antipode-alpha", "delta-alpha"])
    def test_deep_tree_in_the_charge_algebra_is_usage_error(self, capsys, name):
        # The charge algebra reads a tree's word off its over-factorization,
        # sorted by Tree.sort_key; the degree bound is checked on the parsed
        # tree, before that word is read.
        comb = "(e v " * 1500 + "e" + ")" * 1500
        code, out, err = run(capsys, "map", name, f"({comb} v e)")
        assert code == 2
        assert out == ""
        assert err == f"error: map takes elements of degree up to {MAP_MAX_ORDER}; this one has degree 1501\n"

    def test_element_at_the_degree_bound_is_mapped(self, capsys):
        comb = "(e v " * MAP_MAX_ORDER + "e" + ")" * MAP_MAX_ORDER
        code, out, err = run(capsys, "map", "delta-p-e", comb)
        assert code == 0 and err == ""
        # One term per node of the right spine, and one more.
        assert len(out.split(" + ")) == MAP_MAX_ORDER + 1

    @pytest.mark.parametrize(
        "name, text",
        [
            ("delta-p-e", "(e v " * (MAP_MAX_ORDER + 1) + "e" + ")" * (MAP_MAX_ORDER + 1)),
            ("delta-p-gamma", "*".join(["(e v e)"] * (MAP_MAX_ORDER + 1))),
            ("antipode-alpha", "(" * MAP_MAX_ORDER + "e" + " v e)" * MAP_MAX_ORDER + "*(e v e)"),
        ],
        ids=["comb", "product", "generators"],
    )
    def test_element_above_the_degree_bound_is_usage_error(self, capsys, monkeypatch, name, text):
        f = cli.MAPS[name]
        monkeypatch.setitem(cli.MAPS, name, lift_linear(f.tags, f.out_tags, _never_called))
        code, out, err = run(capsys, "map", name, text)
        assert code == 2
        assert out == ""
        assert err == f"error: map takes elements of degree up to {MAP_MAX_ORDER}; this one has degree {MAP_MAX_ORDER + 1}\n"

    @pytest.mark.parametrize(
        "text, degree", [("Y100000.1", 100000), ("Y1.1 * Y100000.1*(e v e)", 100002), ("Y017.1", 17)]
    )
    def test_huge_name_is_refused_unbuilt(self, capsys, monkeypatch, text, degree):
        # Building Yn.k costs C(n) and a Catalan table of n numbers, which
        # grows with the square of n: the name alone must be refused.
        def bounded(f):
            def g(n, *rest):
                if n > MAP_MAX_ORDER:
                    raise AssertionError(f"{f.__name__}({n}) called")
                return f(n, *rest)

            return g

        for name in ("catalan", "tree_unrank"):
            monkeypatch.setattr(trees, name, bounded(getattr(trees, name)))
        code, out, err = run(capsys, "map", "delta-p-e", text)
        assert code == 2
        assert out == ""
        assert err == f"error: map takes elements of degree up to {MAP_MAX_ORDER}; this one has degree {degree}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("Y3." + "1" * 5000, f"no tree named {clip('Y3.' + '1' * 5000)}: its numbers are too long to read"),
            ("Y" + "9" * 4000 + ".1", "this one has degree a 4000-digit number"),
            ("Y" + "9" * 4300 + ".1*Y" + "9" * 4300 + ".1", "this one has degree a 4301-digit number"),
        ],
        ids=["long-rank", "long-order", "long-degree"],
    )
    def test_huge_number_gives_a_short_line(self, capsys, text, message):
        code, out, err = run(capsys, "map", "delta-p-e", text)
        assert code == 2
        assert out == ""
        assert _one_error_line(err) and err.endswith(f"{message}\n") and len(err) < 120

    def test_degree_bound_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["map", "--help"])
        assert f"degree above {MAP_MAX_ORDER} are refused" in capsys.readouterr().out


class TestCheck:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "counts", "--order", "6")
        assert code == 0
        assert all(line.startswith("[PASS]") for line in out.strip().splitlines())

    def test_unknown_suite(self, capsys):
        code, out, err = run(capsys, "check", "bogus")
        assert code == 2
        assert out == ""
        assert _one_error_line(err) and "unknown suite 'bogus'; choose from" in err

    def test_unknown_corrupt_map(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.checks, "run_suite", _never_called)
        code, out, err = run(capsys, "check", "all", "--corrupt", "nosuch")
        assert code == 2
        assert out == ""
        assert err == "error: unknown map 'nosuch'\n"

    @pytest.mark.parametrize("argv", [["all", "--order", "-1"], ["coassoc", "--order", "-2"]])
    def test_negative_order_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["all", "--order", str(CHECK_MAX_ORDER + 1)], ["counts", "--order", "30"]])
    def test_order_above_the_bound_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli.checks, "run_suite", _never_called)
        code, out, err = run(capsys, "check", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: check sweeps orders up to {CHECK_MAX_ORDER}; order {argv[-1]} is too large\n"

    def test_suites_in_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert f"all, or one of: {', '.join(cli.checks.SUITES)}" in capsys.readouterr().out

    def test_order_bound_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert f"0 to {CHECK_MAX_ORDER}" in " ".join(capsys.readouterr().out.split())

    def test_order_zero_is_valid(self, capsys):
        code, out, _ = run(capsys, "check", "coassoc", "--order", "0")
        assert code == 0
        assert all(line.startswith("[PASS]") for line in out.strip().splitlines())

    def test_corrupt_fails_with_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "check", "coassoc", "--order", "3", "--corrupt", "delta-alpha"
        )
        assert code == 1
        failing = [line for line in out.splitlines() if line.startswith("[FAIL]")]
        assert failing
        assert any("fails on" in line for line in failing)


class TestRenorm:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "renorm", "--order", "3", "--seed", "5")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "ok"
        assert data["photon"]["status"] == "ok"
        assert data["electron"]["status"] == "ok"

    def test_matrix_ring(self, capsys):
        code, out, _ = run(
            capsys,
            "renorm",
            "--order",
            "3",
            "--seed",
            "1",
            "--ring",
            "matrix",
            "--format",
            "ascii",
        )
        assert code == 0
        assert "photon: PASS" in out and "electron: PASS" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--order", str(RENORM_MAX_ORDER + 1)],
            ["--order", "12", "--ring", "matrix"],
            ["--ring", "matrix", "--d", "0"],
            ["--ring", "matrix", "--d", "-1", "--format", "ascii"],
        ],
    )
    def test_out_of_bounds_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "renorm", *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("d", [RENORM_MAX_D + 1, 1000, 100000])
    def test_huge_dimension_is_refused_unbuilt(self, capsys, monkeypatch, d):
        # A character draws d^2 fractions per tree: a large d must be
        # refused before any character is built.
        monkeypatch.setattr(cli.renorm, "make_toy_character", _never_called)
        code, out, err = run(capsys, "renorm", "--ring", "matrix", "--d", str(d))
        assert code == 2
        assert out == ""
        assert err == f"error: --d takes 1 to {RENORM_MAX_D} for the matrix ring, not {d}\n"

    @pytest.mark.parametrize("order", [0, -3])
    def test_low_order_is_refused_unbuilt(self, capsys, monkeypatch, order):
        # Below order 1 there is no series to check: refused before any
        # character is built, by a message that names the range.
        monkeypatch.setattr(cli.renorm, "make_toy_character", _never_called)
        code, out, err = run(capsys, "renorm", "--order", str(order))
        assert code == 2
        assert out == ""
        assert err == f"error: renorm checks orders 1 to {RENORM_MAX_ORDER}; order {order} is too small\n"

    @pytest.mark.parametrize("ring", ["scalar", "matrix"])
    def test_charge_table_is_read_once_per_tree(self, capsys, monkeypatch, ring):
        # The photon and electron reports share one charge side, so each
        # tree's charge coaction pairs are read once per command.
        reads = Counter()
        clean = cli.renorm.charge_coaction_tree

        def counted(t):
            reads[t] += 1
            return clean(t)

        monkeypatch.setattr(cli.renorm, "charge_coaction_tree", counted)
        code, out, _ = run(capsys, "renorm", "--order", "5", "--ring", ring)
        assert code == 0 and json.loads(out)["status"] == "ok"
        assert reads == Counter(t for m in range(1, 6) for t in enumerate_trees(m))

    def test_largest_dimension_runs(self, capsys):
        code, out, _ = run(capsys, "renorm", "--order", "1", "--ring", "matrix", "--d", str(RENORM_MAX_D))
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_bound_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["renorm", "--help"])
        help_text = capsys.readouterr().out
        assert f"1 to {RENORM_MAX_ORDER}" in help_text
        assert f"1 to {RENORM_MAX_D}" in help_text


NINES = "9" * 4000
RENORM_OPTIONS = "--help, --order, --seed, --ring, --d, --format"


class TestArgumentErrors:
    """The parser's own errors take the one exit-2 form: one stderr line,
    no usage block, and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["renorm", "--d", "x"], "argument --d: invalid int value: 'x'"),
            (["check", "all", "--order", "x"], "argument --order: invalid int value: 'x'"),
            ([], "the following arguments are required: command"),
            (["renorm", "--ring", "ring"], "argument --ring: invalid choice: 'ring' (choose from 'scalar', 'matrix')"),
            (["enum", "3", "4"], "unrecognized arguments: 4"),
            # An echoed argument is clipped, and quoted when it is not printable.
            (["enum", "3", "a\nb"], "unrecognized arguments: 'a\\nb'"),
            (["enum", "3", "x" * 200], f"unrecognized arguments: {clip('x' * 200)}"),
            (["renorm", "--d", "y" * 200], f"argument --d: invalid int value: {clip('y' * 200)!r}"),
            (
                ["renorm", "--ring", "r" * 200],
                f"argument --ring: invalid choice: {clip('r' * 200)!r} (choose from 'scalar', 'matrix')",
            ),
            (
                ["c" * 200],
                f"argument command: invalid choice: {clip('c' * 200)!r} "
                "(choose from 'enum', 'map', 'check', 'renorm')",
            ),
            # Each unrecognized argument is clipped on its own.
            (["enum", "3", "x" * 200, "y" * 200], f"unrecognized arguments: {clip('x' * 200)} {clip('y' * 200)}"),
            # The value argparse reads out of an argument is clipped too.
            (
                ["enum", "3", "--count-only=" + "z" * 200],
                f"argument --count-only: ignored explicit argument {clip('z' * 200)!r}",
            ),
            (["-h" + "z" * 200], f"argument -h/--help: ignored explicit argument {clip('z' * 200)!r}"),
            (["renorm", "--=" + "q" * 200], f"ambiguous option: {clip('--=' + 'q' * 200)} could match {RENORM_OPTIONS}"),
            (["renorm", "--=a\nb"], f"ambiguous option: '--=a\\nb' could match {RENORM_OPTIONS}"),
            # A long number in a bound message is given by its digit count.
            (["enum", NINES], f"enum lists orders up to {ENUM_MAX_ORDER}; order a 4000-digit number is too large"),
            (
                ["check", "all", "--order", NINES],
                f"check sweeps orders up to {CHECK_MAX_ORDER}; order a 4000-digit number is too large",
            ),
            (
                ["renorm", "--order", NINES],
                f"renorm checks orders up to {RENORM_MAX_ORDER}; order a 4000-digit number is too large",
            ),
            (
                ["renorm", "--ring", "matrix", "--d", NINES],
                f"--d takes 1 to {RENORM_MAX_D} for the matrix ring, not a 4000-digit number",
            ),
        ],
        ids=[
            "renorm-d",
            "check-order",
            "no-command",
            "renorm-ring",
            "enum-extra",
            "newline",
            "long-extra",
            "long-int",
            "long-choice",
            "long-command",
            "long-extras",
            "long-explicit-value",
            "long-help-value",
            "long-ambiguous",
            "newline-ambiguous",
            "long-enum-order",
            "long-check-order",
            "long-renorm-order",
            "long-renorm-d",
        ],
    )
    def test_is_one_error_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert _one_error_line(err) and err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "0" + NINES],
            ["check", "all", "--order", "0" + NINES],
            ["check", "all", "--order", "-0" + NINES],
            ["renorm", "--order", "0" + NINES],
            ["renorm", "--order", "-0" + NINES],
            ["renorm", "--ring", "matrix", "--d", "0" + NINES],
            ["renorm", "--ring", "matrix", "--d", "-0" + NINES],
        ],
        ids=["enum", "check-order", "check-negative-order", "renorm-order", "renorm-negative-order", "d", "negative-d"],
    )
    def test_long_number_spelled_otherwise_is_short(self, capsys, argv):
        # A leading zero: the number int read is not the argument, so only
        # the message itself can keep it short.
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert _one_error_line(err) and len(err.rstrip("\n")) <= 120
        assert "4000-digit number" in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: treehopf")


@pytest.fixture
def no_collector():
    """The parser built and old garbage freed, then the cyclic collector
    off; its state and debug flags are restored after the test."""
    was_enabled = gc.isenabled()
    cli.build_parser()
    gc.collect()
    gc.disable()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    (gc.enable if was_enabled else gc.disable)()


def _argparse_garbage() -> list:
    """The argparse objects in reference cycles, kept by DEBUG_SAVEALL."""
    gc.collect()
    return [o for o in gc.garbage if type(o).__module__ == "argparse"]


class TestNoGarbageCycles:
    """The parser is built once per process, so a CLI call leaves none of
    the argparse formatters that each build leaves in reference cycles."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "3"],
            ["map", "delta-p-e", "Y2.1"],
            ["renorm", "--order", "99"],
            ["renorm", "--d", "x"],
            ["renorm", "--order", "3"],
            ["map", "delta-gamma", "Y3.1", "--format", "json"],
            ["check", "coassoc", "--order", "2"],
            ["check", "all", "--order", "2"],
            ["check", "all"],
        ],
        ids=[
            "enum",
            "map",
            "refused-renorm",
            "unparsed-renorm",
            "renorm-json",
            "map-json",
            "check-coassoc-2",
            "check-all-2",
            "check-all",
        ],
    )
    def test_command_leaves_no_cycle(self, capsys, no_collector, argv):
        main(argv)
        assert gc.collect() == 0

    @pytest.mark.parametrize(
        "argv", [["check", "coassoc", "--order", "2"], ["renorm", "--order", "3"]], ids=["check", "renorm"]
    )
    def test_command_leaves_no_argparse_cycle(self, capsys, no_collector, argv):
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert main(argv) == 0
        assert _argparse_garbage() == []

    def test_a_fresh_parser_is_seen(self, no_collector):
        # Negative control: a second build leaves its formatters in cycles.
        gc.set_debug(gc.DEBUG_SAVEALL)
        cli.build_parser.__wrapped__()
        assert _argparse_garbage()
