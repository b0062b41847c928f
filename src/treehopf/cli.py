"""Command-line front end: tree enumeration, map evaluation, axiom sweeps
and the renormalization demo.

Exit codes: 0 on success, 1 on a failed verification, 2 on usage errors,
and 141 (128 + SIGPIPE, what a shell reports for a program a closed pipe
stops) when the reader of the output closes the pipe early, as
``treehopf enum 12 | head -1`` does; nothing is then printed to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .trees import ECHO_MAX, clip, iter_rendered, number_text, parse, read_name
from .algebra import (
    MAPS,
    Element,
    Tag,
    TensorElement,
    element_to_json,
    format_terms,
    from_word,
    tensor_to_json,
    tree_word,
)
from . import checks, renorm


def _json_text(data, indent: str = "") -> str:
    """``json.dumps(data, indent=2)``: indenting runs json's pure-Python encoder,
    whose closures leave a reference cycle on every call, so the containers
    are written here and each key and leaf by plain ``json.dumps``."""
    if not data or not isinstance(data, (dict, list, tuple)):
        return json.dumps(data)
    inner = indent + "  "
    if isinstance(data, dict):
        body = ",\n".join(f"{inner}{json.dumps(k)}: {_json_text(v, inner)}" for k, v in data.items())
        return f"{{\n{body}\n{indent}}}"
    body = ",\n".join(inner + _json_text(v, inner) for v in data)
    return f"[\n{body}\n{indent}]"


def format_output(x: TensorElement, fmt: str) -> str:
    """Render a map's output: JSON, in which an element names its tag and
    words, or text in the ``ascii`` or ``latex`` style of ``format_terms``."""
    if fmt == "json":
        return _json_text(element_to_json(x) if x.nslots == 1 else tensor_to_json(x))
    return format_terms(x, fmt)


# Largest degree of an element `map` accepts.  The antipode of the n-deep
# right comb has 2^(n-1) terms: at n = 16 `antipode-p-e` takes about 0.9 s,
# 53 MB and prints 3.8 MB, at n = 18 2.7 s and 170 MB (in process on a
# 2-CPU x86-64 VM with Python 3.11), and each further level doubles it.
MAP_MAX_ORDER = 16


def parse_element(tag: Tag, text: str) -> Element:
    """A single tree, or a product of trees joined with '*', of degree at
    most MAP_MAX_ORDER.  In every tag a product's degree is the sum of its
    trees' orders, so the bound is checked on the parsed trees, before any
    basis word is read, and on a factor named ``Yn.k`` before it is built."""
    text = text.strip()
    if text == "-":
        if sys.stdin is None:
            raise ValueError("the element '-' reads stdin, which is closed")
        text = sys.stdin.read().strip()
    factors = text.split("*")
    if len(factors) > 1 and not all(f.strip() for f in factors):
        raise ValueError(f"the product {clip(text)!r} has an empty factor")
    named = [name[0] if (name := read_name(f.strip())) else 0 for f in factors]
    ts = [parse(f) for f, n in zip(factors, named) if n <= MAP_MAX_ORDER]
    degree = sum(n for n in named if n > MAP_MAX_ORDER) + sum(t.order for t in ts)
    if degree > MAP_MAX_ORDER:
        raise ValueError(
            f"map takes elements of degree up to {MAP_MAX_ORDER}; this one has degree {number_text(degree)}"
        )
    return from_word(tag, [u for t in ts for u in tree_word(tag, t)])


# Largest order `enum` accepts.  Listing order n holds the texts of the
# orders below n - 2 and builds each text of order n once: counting order 14
# takes about 0.4 s and 27 MB peak RSS as a command (2-CPU x86-64 VM, Python
# 3.11), and each order costs about four times the time and three times the
# held texts of the one before.
ENUM_MAX_ORDER = 14

# Lines of the `enum` listing joined into one block for each write: order 12
# takes 204 writes of about 85 kB, not 208,012 of one line.
ENUM_BLOCK_LINES = 1024


def cmd_enum(args) -> int:
    n = args.n
    if n > ENUM_MAX_ORDER:
        raise ValueError(f"enum lists orders up to {ENUM_MAX_ORDER}; order {number_text(n)} is too large")
    texts = iter_rendered(n)
    if args.count_only:
        print(sum(1 for _ in texts))
        return 0
    lines = (f"Y{n}.{k}  {s}\n" for k, s in enumerate(texts, start=1))
    write = sys.stdout.write
    while block := "".join(itertools.islice(lines, ENUM_BLOCK_LINES)):
        write(block)
    return 0


def cmd_map(args) -> int:
    f = MAPS.get(args.name)
    if f is None:
        single = sorted(name for name, g in MAPS.items() if len(g.tags) == 1)
        raise KeyError(f"unknown map {args.name!r}; choose from {single}")
    if len(f.tags) != 1:
        slots = ", ".join(tag.value for tag in f.tags)
        raise ValueError(f"map takes single-algebra elements; {args.name} acts on ({slots}) tensors")
    print(format_output(f(parse_element(f.tags[0], args.element)), args.format))
    return 0


# Largest order `check --order` accepts: the largest default order of any
# law sweep.  Each order costs about six times the one before: `check all`
# takes 1.6 s at order 5 and 9.5 s at order 6 (in process on a 2-CPU x86-64
# VM with Python 3.11).
CHECK_MAX_ORDER = 8


def cmd_check(args) -> int:
    if args.order is not None and args.order > CHECK_MAX_ORDER:
        raise ValueError(f"check sweeps orders up to {CHECK_MAX_ORDER}; order {number_text(args.order)} is too large")
    maps = MAPS if args.corrupt is None else checks.corrupt_map(MAPS, args.corrupt)
    ok = True
    for r in checks.run_suite(args.suite, args.order, maps):
        print(r.line())
        ok = ok and r.ok
    return 0 if ok else 1


# Largest order `renorm` accepts.  Each order costs three to six times the
# one before: order 8 takes about 0.06-0.09 s (scalar ring) or 0.16-0.23 s
# (4x4 matrices) and 19-23 MB, order 10 about 1.0-1.2 s or 2.3-2.4 s and
# 74-107 MB (a fresh process on a 2-CPU x86-64 VM with Python 3.11), so
# order 12 would run for half a minute or more with matrices.
RENORM_MAX_ORDER = 8

# Largest matrix dimension `renorm --ring matrix` accepts.  Each character
# draws d^2 fractions per tree before any check runs: at order 8, d = 16
# takes about 1.1-1.6 s and 44 MB, d = 32 4.5-4.7 s and 108-116 MB (a fresh
# process on a 2-CPU x86-64 VM with Python 3.11), and each doubling of d
# costs about three times the time.
RENORM_MAX_D = 16


def cmd_renorm(args) -> int:
    if args.order > RENORM_MAX_ORDER:
        raise ValueError(f"renorm checks orders up to {RENORM_MAX_ORDER}; order {number_text(args.order)} is too large")
    if args.order < 1:
        raise ValueError(f"renorm checks orders 1 to {RENORM_MAX_ORDER}; order {number_text(args.order)} is too small")
    if args.ring == "matrix" and not 1 <= args.d <= RENORM_MAX_D:
        raise ValueError(f"--d takes 1 to {RENORM_MAX_D} for the matrix ring, not {number_text(args.d)}")
    u_gamma = renorm.make_toy_character(Tag.HGAMMA, args.seed, args.ring, args.d, max_order=args.order)
    u_e = renorm.make_toy_character(Tag.HE, args.seed, args.ring, args.d, max_order=args.order)
    c_gamma = renorm.make_toy_character(Tag.HALPHA, args.seed + 1, "scalar", args.d, max_order=args.order)
    photon, electron = renorm.dyson_reports(u_gamma, u_e, c_gamma, args.order)
    report = {
        "seed": args.seed,
        "ring": args.ring,
        "order": args.order,
        "photon": photon.to_json(),
        "electron": electron.to_json(),
        "status": "ok" if photon.ok and electron.ok else "fail",
    }
    if args.format == "json":
        print(_json_text(report))
    else:
        for rep in (photon, electron):
            status = "PASS" if rep.ok else f"FAIL at order {rep.first_failure}"
            print(f"{rep.which}: {status}")
    return 0 if photon.ok and electron.ok else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``ValueError`` for ``main`` to
    print as one line, with no usage block; its subparsers share its class."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each build leaves about 200
    argparse objects in reference cycles that only a collection frees."""
    p = _Parser(
        prog="treehopf",
        description="Exact computer algebra on planar binary trees: Hopf "
        "structure maps, axiom sweeps, and the propagator renormalization demo.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser(
        "enum",
        help=f"list all trees of a given order (at most {ENUM_MAX_ORDER}), streamed",
        description="List the trees of order n in canonical order, one line each, "
        f"written in blocks of {ENUM_BLOCK_LINES} lines as they are generated.  "
        f"Orders above {ENUM_MAX_ORDER} are refused to bound memory.",
    )
    pe.add_argument("n", type=int, help=f"the order, 0 to {ENUM_MAX_ORDER}")
    pe.add_argument("--count-only", action="store_true")
    pe.set_defaults(fn=cmd_enum)

    pm = sub.add_parser(
        "map",
        help=f"apply a named structure map to an element of degree at most {MAP_MAX_ORDER}",
        description="Apply a named structure map to an element and print the result.  "
        f"Elements of degree above {MAP_MAX_ORDER} are refused to bound time and memory.",
    )
    pm.add_argument("name")
    pm.add_argument("element", help="tree text, 'Yn.k', products with '*', or '-' for stdin")
    pm.add_argument("--format", choices=["ascii", "latex", "json"], default="ascii")
    pm.set_defaults(fn=cmd_map)

    pc = sub.add_parser("check", help="run a named axiom sweep")
    pc.add_argument("suite", help=f"all, or one of: {', '.join(checks.SUITES)}")
    pc.add_argument(
        "--order",
        type=int,
        default=None,
        help=f"the order of every sweep, 0 to {CHECK_MAX_ORDER} (default: each sweep's own)",
    )
    pc.add_argument("--corrupt", default=None, help="negative control: corrupt a map and every composite built on it")
    pc.set_defaults(fn=cmd_check)

    pr = sub.add_parser("renorm", help="order-by-order propagator consistency demo")
    pr.add_argument("--order", type=int, default=4, help=f"the truncation order, 1 to {RENORM_MAX_ORDER}")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--ring", choices=["scalar", "matrix"], default="scalar")
    pr.add_argument("--d", type=int, default=4, help=f"matrix dimension of the matrix ring, 1 to {RENORM_MAX_D}")
    pr.add_argument("--format", choices=["ascii", "json"], default="json")
    pr.set_defaults(fn=cmd_renorm)

    return p


def _echo_safe(message: str, argv: list[str]) -> str:
    """The message with each unsafe piece of ``argv`` clipped: an argument, or
    the value argparse reads out of one (after ``=`` or ``-h``), longer than
    ECHO_MAX or not printable.  A piece is quoted in ``repr`` where the message
    quotes it so or it is not printable, so the message stays one line."""
    pieces = {p for arg in argv for p in (arg, arg.partition("=")[2])}
    pieces.update(arg[1:].lstrip("h") for arg in argv if arg[:2] == "-h")
    for p in sorted((p for p in pieces if len(p) > ECHO_MAX or not p.isprintable()), key=len, reverse=True):
        if repr(p) in message:
            message = message.replace(repr(p), repr(clip(p)))
        else:
            message = message.replace(p, clip(p) if p.isprintable() else repr(clip(p)))
    return message


EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        # Flushed here, so that a closed pipe is met below and not at exit.
        sys.stdout.flush()
        return code
    except (ValueError, KeyError, RecursionError) as exc:
        # RecursionError: a tree nested deeper than the interpreter's stack.
        # The str of a KeyError quotes its message, so print the message.
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        print(f"error: {_echo_safe(message, argv)}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull, so that the interpreter's final flush of
        # the unwritten rest prints nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
