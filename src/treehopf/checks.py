"""Named axiom sweeps over finite basis ranges.

Every law the structure maps are supposed to satisfy is checked exactly,
term by term, over all basis elements up to a total order bound.  Each check
reports the first counterexample it finds, so a corrupted map fails loudly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .trees import (
    Tree,
    E,
    all_trees_up_to,
    catalan,
    clip,
    decompose_over,
    number_text,
)
from .algebra import (
    MAPS,
    Element,
    Tag,
    TensorElement,
    Word,
    embed_tree,
    from_word,
    lift_linear,
    over_maps,
    tree_word,
    unit,
    word_as_tree,
    word_degree,
)
from . import hopf, qed, trees


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f"  ({self.detail})" if self.detail and not self.ok else ""
        return f"[{status}] {self.name}{suffix}"


def corrupt_map(maps: dict[str, Callable], name: str) -> dict[str, Callable]:
    """Replace one structure map by a damaged variant: multi-term outputs
    silently lose their last term, single nonunit terms are squared (wrong
    degree).  Negative control for the axiom sweeps.  The variant is a word
    map of the same tags, which damages the image of each basis word.  Each
    composite in ``maps`` is rebuilt from its ``parts`` over the new set, so a
    damaged part reaches every composite built on it, and no other map."""
    if name not in maps:
        raise KeyError(f"unknown map {clip(name)!r}")
    inner = maps[name]

    def corrupted(*words):
        out = inner.word(*words)
        if len(out.terms) > 1:
            terms = dict(out.terms)
            del terms[out.sorted_terms()[-1][0]]
            return TensorElement._new(out.tags, terms)
        if len(out.terms) == 1:
            (key,) = out.terms
            if any(key):  # not the unit
                return out * out
        return out

    out = dict(maps)
    out.update({other: over_maps(out, f.tags, f.out_tags, f.parts) for other, f in maps.items() if hasattr(f, "parts")})
    out[name] = lift_linear(inner.tags, inner.out_tags, corrupted)
    return out


# -- basis enumeration ------------------------------------------------------


def basis_words(tag: Tag, n: int) -> list[Word]:
    """All basis words of total degree <= n, unit word included.  The
    letters are the trees of positive degree (:func:`word_degree`) up to n;
    a commutative algebra keeps only the sorted words."""
    weight = {t: word_degree(tag, (t,)) for t in all_trees_up_to(n)}
    letters = [t for t, w in weight.items() if 0 < w <= n]
    out: list[Word] = []
    # Depth first, each word before its extensions, letters popped in order.
    stack: list[tuple[Word, int]] = [((), n)]
    while stack:
        prefix, budget = stack.pop()
        out.append(prefix)
        for t in reversed(letters):
            if weight[t] <= budget:
                if tag.commutative and prefix and t.sort_key() < prefix[-1].sort_key():
                    continue  # commutative normal form: nondecreasing letters
                stack.append((prefix + (t,), budget - weight[t]))
    return out


def basis_elements(tag: Tag, n: int) -> list[Element]:
    return [from_word(tag, w) for w in basis_words(tag, n)]


def qed_basis(n: int) -> list[TensorElement]:
    out = []
    for wa in basis_words(Tag.HALPHA, n):
        da = word_degree(Tag.HALPHA, wa)
        for wb in basis_words(Tag.HE, n - da):
            out.append(TensorElement._new(qed.QED_TAGS, {(wa, wb): 1}))
    return out


def _sweep(name: str, items: Iterable, law: Callable[[object], Optional[str]]) -> CheckResult:
    """Run a per-item law; the law returns None on success or a description
    of the violation.  The first violation in item order is reported."""
    for x in items:
        detail = law(x)
        if detail is not None:
            return CheckResult(name, False, detail)
    return CheckResult(name, True)


# -- coalgebra laws ---------------------------------------------------------


def _coaction_law(what: str, coact, delta) -> Callable[[object], Optional[str]]:
    """The coaction law (coact (x) Id) coact == (Id (x) delta) coact, delta
    acting on the coacting algebra, slot 1 on of coact(x).  Coassociativity
    is the law with coact = delta.  On a violation the detail is ``what``
    formatted with the item as ``x`` and lhs - rhs as ``diff``."""

    def law(x) -> Optional[str]:
        d = coact(x)
        lhs = d.map_slot(0, coact)
        rhs = d.map_slot(1, delta)
        return None if lhs == rhs else what.format(x=x, diff=lhs - rhs)

    return law


def _antipode_holds(x: Element, d: TensorElement, antipode, slots) -> bool:
    """m (S (x) Id) d == counit(x) 1 for d the coproduct of x, S applied to
    each slot in ``slots`` in turn."""
    target = unit(x.tag).scale(x.counit())
    return all(d.map_slot(i, antipode).slot_multiply(0, 1, 0) == target for i in slots)


def check_coassoc(tag: Tag, n: int, maps=MAPS) -> CheckResult:
    delta = maps[tag.coproduct]
    law = _coaction_law("coassociativity fails on {x!r}: {diff!r}", delta, delta)
    return _sweep(f"coassoc[{tag.value}] order<={n}", basis_elements(tag, n), law)


def check_counit(tag: Tag, n: int, maps=MAPS) -> CheckResult:
    delta = maps[tag.coproduct]

    def law(x: Element) -> Optional[str]:
        d = delta(x)
        if d.contract_counit(0) != x or d.contract_counit(1) != x:
            return f"counit law fails on {x!r}"
        return None

    return _sweep(f"counit[{tag.value}] order<={n}", basis_elements(tag, n), law)


def check_antipode(tag: Tag, n: int, maps=MAPS) -> CheckResult:
    delta, antipode = maps[tag.coproduct], maps[tag.antipode]

    def law(x: Element) -> Optional[str]:
        if not _antipode_holds(x, delta(x), antipode, (0, 1)):
            return f"antipode axiom fails on {x!r}"
        return None

    return _sweep(f"antipode[{tag.value}] order<={n}", basis_elements(tag, n), law)


def check_alpha_trees(n: int, maps=MAPS) -> CheckResult:
    """Coassociativity, counit and antipode on the charge algebra over the
    images of all single trees (not just low-degree monomials)."""
    delta = maps["delta-alpha"]
    antipode = maps["antipode-alpha"]

    def law(t: Tree) -> Optional[str]:
        x = embed_tree(Tag.HALPHA, t)
        d = delta(x)
        if d.map_slot(0, delta) != d.map_slot(1, delta):
            return f"coassociativity fails on tree {t}"
        if d.contract_counit(0) != x:
            return f"counit fails on tree {t}"
        if not _antipode_holds(x, d, antipode, (0,)):
            return f"antipode fails on tree {t}"
        return None

    return _sweep(f"hopf[Halpha] single trees order<={n}", all_trees_up_to(n), law)


def check_primitive_pairing(n: int, maps=MAPS) -> CheckResult:
    """The charge coproduct of a tree contains t (x) 1 and 1 (x) t exactly once."""
    delta = maps["delta-alpha"]

    def law(t: Tree) -> Optional[str]:
        if t is E:
            return None
        d = delta(embed_tree(Tag.HALPHA, t))
        w = tree_word(Tag.HALPHA, t)
        if d.terms.get((w, ())) != 1 or d.terms.get(((), w)) != 1:
            return f"primitive pairing fails on tree {t}"
        return None

    return _sweep(f"primitive-pairing order<={n}", all_trees_up_to(n), law)


# -- coactions --------------------------------------------------------------

# which -> the coaction.  (D1) sweeps every one with the coproduct of its
# last output slot, the charge coproduct; (D2) sweeps the two that coact on
# the propagator algebras, with the coproduct of the coacted algebra.
_COACTIONS = {
    "gamma": "delta-gamma-coaction",
    "e": "delta-e-coaction",
    "alpha": "delta-small",
    "alpha-nc": "delta-small-nc",
}


def check_coaction_d1(which: str, n: int, maps=MAPS) -> CheckResult:
    """(coact (x) Id) coact == (Id (x) charge coproduct) coact."""
    coact = maps[_COACTIONS[which]]
    law = _coaction_law("(D1) fails on {x!r}", coact, maps[coact.out_tags[-1].coproduct])
    return _sweep(f"(D1)[{which}] order<={n}", basis_elements(coact.tags[0], n), law)


def check_coaction_d2(which: str, n: int, maps=MAPS) -> CheckResult:
    """(pruning (x) Id) coact == merge-middle of (coact (x) coact) pruning."""
    coact = maps[_COACTIONS[which]]
    tag = coact.tags[0]
    pruning = maps[tag.coproduct]

    def law(x: Element) -> Optional[str]:
        lhs = coact(x).map_slot(0, pruning)
        rhs = pruning(x).map_slot(0, coact).map_slot(2, coact).slot_multiply(1, 3, 2)
        if lhs != rhs:
            return f"(D2) fails on {x!r}"
        return None

    return _sweep(f"(D2)[{which}] order<={n}", basis_elements(tag, n), law)


# -- QED Hopf algebra -------------------------------------------------------


def check_qed_hopf(n: int, maps=MAPS) -> CheckResult:
    coproduct = maps["qed-coproduct"]
    antipode = maps["qed-antipode"]

    def law(x: TensorElement) -> Optional[str]:
        d = coproduct(x)
        if d.map_slot(0, coproduct) != d.map_slot(2, coproduct):
            return f"qed coassociativity fails on {x!r}"
        if d.contract_counit(0).contract_counit(0) != x:
            return f"qed counit (left) fails on {x!r}"
        if d.contract_counit(2).contract_counit(2) != x:
            return f"qed counit (right) fails on {x!r}"
        target = qed.qed_unit().scale(qed.qed_counit(x))
        for side in (0, 2):
            m = d.map_slot(side, antipode).slot_multiply(0, 2, 0).slot_multiply(1, 2, 1)
            if m != target:
                return f"qed antipode fails on {x!r}"
        return None

    return _sweep(f"hopf[Hqed] order<={n}", qed_basis(n), law)


def check_electron_coaction_law(n: int, maps=MAPS) -> CheckResult:
    """Coassociativity of the electron renormalization coaction with respect
    to the QED coproduct, after regrouping the last two slots."""
    de, dqed = maps["delta-e"], maps["qed-coproduct"]
    law = _coaction_law("electron coaction law fails on {x!r}", de, dqed)
    return _sweep(f"coaction-law[delta-e vs qed] order<={n}", basis_elements(Tag.HE, n), law)


def check_electron_coaction_morphism(n: int, maps=MAPS) -> CheckResult:
    de = maps["delta-e"]

    def law(pair) -> Optional[str]:
        x, y = pair
        if de(x * y) != de(x) * de(y):
            return f"morphism fails on {x!r}, {y!r}"
        return None

    pairs = [
        (from_word(Tag.HE, a), from_word(Tag.HE, b))
        for a, b in itertools.product(basis_words(Tag.HE, n), repeat=2)
        if word_degree(Tag.HE, a) + word_degree(Tag.HE, b) <= n
    ]
    return _sweep(f"morphism[delta-e] order<={n}", pairs, law)


def check_intertwine(n: int, maps=MAPS) -> CheckResult:
    """The over-multiplication morphism intertwines the photon coaction and
    the charge coproduct."""
    sig = maps["sigma"]
    dgamma = maps["delta-gamma"]
    dalpha = maps["delta-alpha"]

    def law(x: Element) -> Optional[str]:
        if dalpha(sig(x)) != dgamma(x).map_slot(0, sig):
            return f"intertwining fails on {x!r}"
        return None

    return _sweep(f"intertwine order<={n}", basis_elements(Tag.HGAMMA, n), law)


def check_photon_coassoc(n: int, maps=MAPS) -> CheckResult:
    dgamma, dalpha = maps["delta-gamma"], maps["delta-alpha"]
    law = _coaction_law("photon coaction coassociativity fails on {x!r}", dgamma, dalpha)
    return _sweep(f"coassoc[delta-gamma] order<={n}", basis_elements(Tag.HGAMMA, n), law)


def check_single_tree_restriction(n: int, maps=MAPS) -> CheckResult:
    """On single trees the photon coaction equals the noncommutative charge
    coproduct read through the word/tree identification."""
    dgamma = maps["delta-gamma"]
    dnc = maps["delta-alpha-nc"]

    def law(t: Tree) -> Optional[str]:
        lhs = dgamma(embed_tree(Tag.HGAMMA, t))
        nc = dnc(embed_tree(Tag.HALPHA_NC, t))
        as_tree = functools.partial(word_as_tree, Tag.HALPHA_NC)
        pairs = {(as_tree(w1), as_tree(w2)): c for (w1, w2), c in nc.terms.items()}
        rhs = hopf.read_pairs((Tag.HGAMMA, Tag.HALPHA), pairs)
        if lhs != rhs:
            return f"single-tree restriction fails on tree {t}"
        for ws in lhs.terms:
            if len(ws[0]) > 1:
                return f"left slot not a single tree on {t}"
        return None

    return _sweep(f"single-tree-restriction order<={n}", all_trees_up_to(n), law)


# -- combinatorial counts ---------------------------------------------------


def check_catalan(n: int) -> CheckResult:
    for m in range(n + 1):
        got = sum(1 for _ in trees.iter_rendered(m))
        if got != catalan(m):
            return CheckResult(f"catalan n<={n}", False, f"|Y_{m}| = {got} != {catalan(m)}")
    return CheckResult(f"catalan n<={n}", True)


def check_term_counts(n: int, maps=MAPS) -> CheckResult:
    dpg = maps["delta-p-gamma"]

    def law(t: Tree) -> Optional[str]:
        got = len(dpg(embed_tree(Tag.HGAMMA, t)).terms)
        want = len(decompose_over(t)) + 1
        if got != want:
            return f"term count {got} != {want} on {t}"
        return None

    return _sweep(f"term-count order<={n}", all_trees_up_to(n), law)


def check_cross(n: int, maps=MAPS) -> CheckResult:
    """Recursive vs factorization implementations agree.  The direct routes
    come from ``maps``; the recursive ones are the reference and are called
    directly."""

    def law(t: Tree) -> Optional[str]:
        xg = embed_tree(Tag.HGAMMA, t)
        xe = embed_tree(Tag.HE, t)
        if maps["delta-p-gamma"](xg) != hopf.delta_p_gamma_recursive(xg):
            return f"over pruning mismatch on {t}"
        if maps["delta-p-e"](xe) != hopf.delta_p_e_recursive(xe):
            return f"under pruning mismatch on {t}"
        if maps["delta-e-coaction"](xe) != qed.delta_e_coaction_recursive(xe):
            return f"electron coaction mismatch on {t}"
        if maps["delta-e"](xe) != qed.electron_renorm_coaction_recursive(xe):
            return f"electron renorm coaction mismatch on {t}"
        return None

    return _sweep(f"cross-check order<={n}", all_trees_up_to(n), law)


# -- suites -----------------------------------------------------------------

# suite -> its sweeps, in order: (check, the arguments before the order, the
# default order).  `all` runs every suite in this order.
SUITES: dict[str, list[tuple[Callable[..., CheckResult], tuple, int]]] = {
    "coassoc": [(check_coassoc, (tag,), 5) for tag in Tag],
    "counit": [(check_counit, (tag,), 5) for tag in Tag],
    "antipode": [(check_antipode, (tag,), 4) for tag in Tag],
    "hopf-alpha-trees": [(check_alpha_trees, (), 6)],
    "coaction": [(check_coaction_d1, (which,), 4) for which in _COACTIONS],
    "compat": [(check_coaction_d2, (which,), 4) for which in ("gamma", "e")],
    "qed": [
        (check_qed_hopf, (), 4),
        (check_electron_coaction_law, (), 4),
        (check_electron_coaction_morphism, (), 4),
    ],
    "intertwine": [(check_intertwine, (), 5)],
    "photon": [(check_photon_coassoc, (), 4), (check_single_tree_restriction, (), 6)],
    "primitive": [(check_primitive_pairing, (), 6)],
    "counts": [(check_catalan, (), 12), (check_term_counts, (), 8)],
    "crosscheck": [(check_cross, (), 8)],
}


def run_suite(suite: str, order: int | None = None, maps=MAPS) -> list[CheckResult]:
    if order is not None and order < 0:
        # Every sweep over the empty range of orders below 0 would pass.
        raise ValueError(f"the order must be at least 0, not {number_text(order)}")
    if suite != "all" and suite not in SUITES:
        raise KeyError(f"unknown suite {clip(suite)!r}; choose from {sorted(SUITES)} or 'all'")
    return [
        # check_catalan counts trees: it reads no structure map.
        check(*args, default if order is None else order, *(() if check is check_catalan else (maps,)))
        for name in (SUITES if suite == "all" else [suite])
        for check, args, default in SUITES[name]
    ]
