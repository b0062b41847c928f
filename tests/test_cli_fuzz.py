"""Seeded fuzzing of the command line, in process through ``cli.main``: every
argv exits 0, 1 or 2 with no traceback, and an exit 2 prints one stderr line,
starting ``error:``, that echoes no argument longer than ``trees.ECHO_MAX``
whole, nor the value argparse reads out of one (after ``=`` or ``-h``).

The argvs mix element texts from the tree grammar, mutated or not, ``Yn.k``
names at and past each bound, numeric options at, just past and far past
every bound of ``cli``, and argument forms argparse echoes.  What is
accepted stays small (map degree at most 6, renorm order at most 3, enum
order at most 8), and a bound is met exactly only where that is cheap."""

import os
import random
import subprocess
import threading

import pytest

from treehopf import checks, cli, trees
from treehopf.cli import CHECK_MAX_ORDER, ENUM_MAX_ORDER, MAP_MAX_ORDER, RENORM_MAX_D, RENORM_MAX_ORDER, main
from treehopf.trees import ECHO_MAX, clip

FUZZ_SEED = 0
FUZZ_ITEMS = 400

NINES = "9" * 4000
# Arguments that are long, not printable, or both, or use non-ASCII digits.
ODD = ["z" * 200, "a\nb", "\x00", "\u200b" * 70, "é" * 70, "'\"" * 40, "٣", "x\ty" * 30]
SINGLE_MAPS = sorted(name for name, f in cli.MAPS.items() if len(f.tags) == 1)


def _odd(rng: random.Random) -> str:
    return rng.choice(ODD + ["q" * rng.randint(ECHO_MAX + 1, 300)])


def _number(rng: random.Random, small, bound: int) -> str:
    """An accepted small value, or one just or far past ``bound``, or one
    that is no int, or an int spelled oddly."""
    return rng.choice(
        [
            # Twice, so that a small value is drawn more often than each other.
            str(rng.choice(small)),
            str(rng.choice(small)),
            str(bound + 1),
            str(bound + 2),
            str(10 ** rng.randrange(3, 40)),
            NINES,
            "-" + NINES,
            "9" * 5000,
            "0" + NINES,
            "-1",
            "0" * 70 + "3",
            "٣",
            "0_3",
            " 2 ",
            "x",
            "",
            _odd(rng),
        ]
    )


def _tree(rng: random.Random, n: int) -> str:
    if n == 0:
        return "e"
    k = rng.randrange(n)
    return f"({_tree(rng, k)} v {_tree(rng, n - 1 - k)})"


# Names at and past the bounds of ``Yn.k``: of n (MAP_MAX_ORDER and the
# digits int converts) and of k (1 to C(n)).
NAMES = [
    f"Y{MAP_MAX_ORDER + 1}.1",
    "Y3.0",
    f"Y3.{trees.catalan(3)}",
    f"Y3.{trees.catalan(3) + 1}",
    f"Y{NINES}.1",
    "Y3." + "1" * 5000,
    "Y٣.1",
    "Y3.٥",
    "Y-1.1",
]


def _element(rng: random.Random) -> str:
    """One or two factors of order at most 3, as tree text or a ``Yn.k``
    name, and in half the draws mutated; or a name at or past a bound."""
    if rng.random() < 0.2:
        return rng.choice(NAMES)
    factors = []
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(0, 3)
        factors.append(_tree(rng, n) if rng.random() < 0.5 else f"Y{n}.{rng.randint(1, trees.catalan(n))}")
    text = "*".join(factors)
    if rng.random() < 0.5:
        i = rng.randrange(len(text) + 1)
        text = rng.choice(
            [
                text[:i] + text[i + 1 :],
                text[:i] + rng.choice("()ev *.Y09٣\n") + text[i:],
                text[:i],
                text + "*",
                text + _odd(rng),
            ]
        )
    return text


def _argv(rng: random.Random) -> list[str]:
    kind = rng.choice(["enum", "map", "check", "renorm", "form"])
    if kind == "enum":
        argv = ["enum", _number(rng, range(9), ENUM_MAX_ORDER)]
        return argv + rng.choice([[], ["--count-only"], ["--count-only=" + _odd(rng)]])
    if kind == "map":
        if rng.random() < 0.1:
            # At the degree bound, with a map whose image is small there.
            at_bound = [f"Y{MAP_MAX_ORDER}.1", "*".join(["Y2.2"] * (MAP_MAX_ORDER // 2))]
            return ["map", "delta-p-e", rng.choice(at_bound)]
        name = rng.choice(SINGLE_MAPS + ["qed-coproduct", "no-such-map", _odd(rng)])
        argv = ["map", name, _element(rng)]
        return argv + rng.choice([[], ["--format", rng.choice(["ascii", "latex", "json"])], ["--format", _odd(rng)]])
    if kind == "check":
        if rng.random() < 0.1:
            return ["check", "counts", "--order", str(CHECK_MAX_ORDER)]
        suite = rng.choice(list(checks.SUITES) + ["all", "bogus", _odd(rng)])
        argv = ["check", suite, "--order", _number(rng, range(4), CHECK_MAX_ORDER)]
        return argv + rng.choice([[], [], ["--corrupt", rng.choice(SINGLE_MAPS + ["nosuch", _odd(rng)])]])
    if kind == "renorm":
        if rng.random() < 0.1:
            return ["renorm", "--order", "1", "--ring", "matrix", "--d", str(RENORM_MAX_D)]
        options = [
            ["--order", _number(rng, (1, 2, 3), RENORM_MAX_ORDER)],
            ["--seed", rng.choice(["0", "7", NINES, "-" + NINES, _odd(rng)])],
            ["--ring", rng.choice(["scalar", "matrix", _odd(rng)])],
            ["--d", _number(rng, (1, 2, 3), RENORM_MAX_D)],
            ["--format", rng.choice(["ascii", "json", _odd(rng)])],
        ]
        picked = rng.sample(options, rng.randint(1, len(options)))
        return ["renorm"] + [a for option in picked for a in option]
    command = rng.choice(["enum", "map", "check", "renorm"])
    option = rng.choice(["order", "seed", "ring", "d", "format", "count-only", "corrupt", "help", "he", "ord"])
    return rng.choice(
        [
            [command, f"--{option}={_odd(rng)}"],
            [command, "--=" + _odd(rng)],
            ["-h" + _odd(rng)],
            [command, "-h" + _odd(rng)],
            [command, _odd(rng)],
            [_odd(rng)],
            ["enum", "3", _odd(rng), _odd(rng)],
        ]
    )


def _violation(capsys, argv: list[str]):
    """What the run of ``argv`` does wrong, or None."""
    try:
        code = main(argv)
    except SystemExit as exc:  # --help prints its text and exits 0
        code = exc.code
    except Exception as exc:
        capsys.readouterr()
        return f"raised {type(exc).__name__}: {clip(str(exc))}"
    err = capsys.readouterr().err
    if code not in (0, 1, 2):
        return f"exit {code}"
    if "Traceback" in err:
        return "traceback"
    if code != 2:
        return f"stderr on exit {code}" if err else None
    if len(err.splitlines()) != 1 or not err.startswith("error: "):
        return f"not one error line: {clip(err)!r}"
    for arg in argv:
        for piece in (arg, arg.partition("=")[2], arg[2:] if arg[:2] == "-h" else ""):
            if len(piece) > ECHO_MAX and piece in err:
                return f"echoes {clip(piece)!r} whole"
    return None


def _fuzz(capsys) -> list[str]:
    rng = random.Random(FUZZ_SEED)
    found = []
    for _ in range(FUZZ_ITEMS):
        argv = _argv(rng)
        problem = _violation(capsys, argv)
        if problem:
            found.append(f"{[clip(a) for a in argv]}: {problem}")
    return found


def _no_process(*args, **kwargs):
    raise AssertionError("started a process")


def _planted_type_error(*args):
    raise TypeError("planted")


class TestSeededFuzz:
    def test_every_argv_exits_cleanly(self, capsys, monkeypatch):
        # In process, and starting no thread or process.
        monkeypatch.setattr(subprocess, "Popen", _no_process)
        monkeypatch.setattr(os, "fork", _no_process)
        threads = threading.active_count()
        assert _fuzz(capsys) == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "target, planted, seen",
        [("parse_element", _planted_type_error, "raised TypeError"), ("_echo_safe", lambda message, argv: message, "whole")],
        ids=["map-raises", "echo-unclipped"],
    )
    def test_planted_bug_is_caught(self, capsys, monkeypatch, target, planted, seen):
        # Negative controls: a `map` that raises TypeError, and a handler that
        # prints each message as it is.
        monkeypatch.setattr(cli, target, planted)
        found = _fuzz(capsys)
        assert found and any(seen in line for line in found)
