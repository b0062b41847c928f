"""Command-line front end: tree enumeration, map evaluation, axiom sweeps
and the renormalization demo.

Exit codes: 0 on success, 1 on a failed verification, 2 on usage errors,
and 141 (128 + SIGPIPE, what a shell reports for a program a closed pipe
stops) when the reader of the output closes the pipe early, as
``treehopf enum 12 | head -1`` does; nothing is then printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .trees import iter_rendered, parse, render
from .algebra import (
    MAPS,
    MAP_INPUTS,
    Element,
    Tag,
    TensorElement,
    element_to_json,
    embed_tree,
    multiplicative,
    tensor_to_json,
    unit,
)
from . import checks, renorm


def _fmt_coeff(c: Fraction, latex: bool) -> str:
    if latex and c.denominator != 1:
        sign = "-" if c < 0 else ""
        return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"
    return str(c)


def _fmt_word(w, latex: bool) -> str:
    if not w:
        return "1"
    sep = " \\cdot " if latex else "*"
    return sep.join(render(t) for t in w)


def format_output(x: Element | TensorElement, fmt: str) -> str:
    """Render a map's output; an element is written as one-slot terms."""
    if fmt == "json":
        data = element_to_json(x) if isinstance(x, Element) else tensor_to_json(x)
        return json.dumps(data, indent=2)
    latex = fmt == "latex"
    otimes = " \\otimes " if latex else " (x) "
    if not x.terms:
        return "0"
    if isinstance(x, Element):
        terms = [((w,), c) for w, c in x.sorted_terms()]
    else:
        terms = x.sorted_terms()
    parts = []
    for ws, c in terms:
        body = otimes.join(_fmt_word(w, latex) for w in ws)
        if c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{_fmt_coeff(c, latex)} {body}" if latex else f"{_fmt_coeff(c, latex)}*{body}")
    joined = " + ".join(parts)
    return joined.replace("+ -", "- ")


def parse_element(tag: Tag, text: str) -> Element:
    """A single tree, or a product of trees joined with '*'."""
    text = text.strip()
    if text == "-":
        text = sys.stdin.read().strip()
    word = multiplicative(lambda: unit(tag), lambda chunk: embed_tree(tag, parse(chunk)))
    return word(text.split("*"))


# Largest order `enum` accepts.  Listing order n holds the texts of the
# orders below n - 2: counting order 14 takes about 1 s and 30 MB, and each
# order costs about four times the time and three times the held texts of
# the one before.
ENUM_MAX_ORDER = 14


def cmd_enum(args) -> int:
    n = args.n
    if n > ENUM_MAX_ORDER:
        raise ValueError(f"enum lists orders up to {ENUM_MAX_ORDER}; order {n} is too large")
    texts = iter_rendered(n)
    if args.count_only:
        print(sum(1 for _ in texts))
        return 0
    write = sys.stdout.write
    for k, s in enumerate(texts, start=1):
        write(f"Y{n}.{k}  {s}\n")
    return 0


def cmd_map(args) -> int:
    tags = MAP_INPUTS.get(args.name)
    if tags is None:
        single = sorted(name for name, t in MAP_INPUTS.items() if len(t) == 1)
        print(f"unknown map {args.name!r}; choose from {single}", file=sys.stderr)
        return 2
    if len(tags) != 1:
        slots = ", ".join(tag.value for tag in tags)
        print(
            f"error: map takes single-algebra elements; {args.name} acts on ({slots}) tensors",
            file=sys.stderr,
        )
        return 2
    x = parse_element(tags[0], args.element)
    print(format_output(MAPS[args.name](x), args.format))
    return 0


def cmd_check(args) -> int:
    maps = checks.corrupt_map(MAPS, args.corrupt) if args.corrupt else MAPS
    try:
        results = checks.run_suite(args.suite, args.order, maps)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.ok
    return 0 if ok else 1


def cmd_renorm(args) -> int:
    u_gamma = renorm.make_toy_character(Tag.HGAMMA, args.seed, args.ring, args.d, max_order=args.order)
    u_e = renorm.make_toy_character(Tag.HE, args.seed, args.ring, args.d, max_order=args.order)
    c_gamma = renorm.make_toy_character(Tag.HALPHA, args.seed + 1, "scalar", args.d, max_order=args.order)
    c_e = renorm.make_toy_character(Tag.HE, args.seed + 2, "scalar", args.d, max_order=args.order)
    photon = renorm.dyson_check_photon(u_gamma, c_gamma, args.order)
    electron = renorm.dyson_check_electron(u_e, c_gamma, c_e, args.order)
    report = {
        "seed": args.seed,
        "ring": args.ring,
        "order": args.order,
        "photon": photon.to_json(),
        "electron": electron.to_json(),
        "status": "ok" if photon.ok and electron.ok else "fail",
    }
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for rep in (photon, electron):
            status = "PASS" if rep.ok else f"FAIL at order {rep.first_failure}"
            print(f"{rep.which}: {status}")
    return 0 if photon.ok and electron.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treehopf",
        description="Exact computer algebra on planar binary trees: Hopf "
        "structure maps, axiom sweeps, and the propagator renormalization demo.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser(
        "enum",
        help=f"list all trees of a given order (at most {ENUM_MAX_ORDER}), streamed",
        description="List the trees of order n in canonical order, one line each, "
        f"printed as they are generated.  Orders above {ENUM_MAX_ORDER} are refused "
        "to bound memory.",
    )
    pe.add_argument("n", type=int, help=f"the order, 0 to {ENUM_MAX_ORDER}")
    pe.add_argument("--count-only", action="store_true")
    pe.set_defaults(fn=cmd_enum)

    pm = sub.add_parser("map", help="apply a named structure map to an element")
    pm.add_argument("name")
    pm.add_argument("element", help="tree text, 'Yn.k', products with '*', or '-' for stdin")
    pm.add_argument("--format", choices=["ascii", "latex", "json"], default="ascii")
    pm.set_defaults(fn=cmd_map)

    pc = sub.add_parser("check", help="run a named axiom sweep")
    pc.add_argument("suite")
    pc.add_argument("--order", type=int, default=None)
    pc.add_argument("--corrupt", default=None, help="negative control: corrupt one structure map")
    pc.set_defaults(fn=cmd_check)

    pr = sub.add_parser("renorm", help="order-by-order propagator consistency demo")
    pr.add_argument("--order", type=int, default=4)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--ring", choices=["scalar", "matrix"], default="scalar")
    pr.add_argument("--d", type=int, default=4)
    pr.add_argument("--format", choices=["ascii", "json"], default="json")
    pr.set_defaults(fn=cmd_renorm)

    return p


EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # Flushed here, so that a closed pipe is met below and not at exit.
        sys.stdout.flush()
        return code
    except (ValueError, KeyError, RecursionError) as exc:
        # RecursionError: a tree nested deeper than the interpreter's stack.
        print(f"error: {exc}", file=sys.stderr)
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
