"""Acceptance suite: seven go/no-go criteria, one printed verdict line each.

Each criterion is a separate test so the suite reports them independently;
the verdict lines are collected and echoed in the terminal summary (see
conftest) so they survive pytest capture.
"""

import random
import time
from fractions import Fraction

from treehopf.trees import E, over, under
from treehopf.algebra import MAPS, Tag, embed_tree
from treehopf import checks, hopf, qed, renorm
from treehopf.series import (
    divide_by_alpha,
    cocycle_check,
    gc_compose,
    gp_action,
    indeterminate,
    one,
    sigma_action,
)

import frozen_tables as tables

# one verdict line per criterion, echoed in the terminal summary (conftest)
REPORT_LINES: list[str] = []


def report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {desc}"
    if detail and not ok:
        line += f"  ({detail})"
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_frozen_tables():
    start = time.monotonic()
    problems = []
    for t, expect in tables.UNDER_ANTIPODE.items():
        if hopf.antipode_p_e(embed_tree(Tag.HE, t)) != expect:
            problems.append(f"under antipode at {t}")
    for t, expect in tables.CHARGE_COPRODUCT.items():
        if hopf.delta_alpha(embed_tree(Tag.HALPHA, t)) != expect:
            problems.append(f"charge coproduct at {t}")
    for t, expect in tables.CHARGE_COACTION.items():
        if hopf.delta_small(embed_tree(Tag.HALPHA, t)) != expect:
            problems.append(f"charge coaction at {t}")
    for t, expect in tables.ELECTRON_COACTION.items():
        if qed.electron_renorm_coaction(embed_tree(Tag.HE, t)) != expect:
            problems.append(f"electron coaction at {t}")
    for t, expect in tables.PHOTON_COACTION.items():
        if qed.photon_renorm_coaction(embed_tree(Tag.HGAMMA, t)) != expect:
            problems.append(f"photon coaction at {t}")
    for a, b, c in tables.OVER_EXAMPLES:
        if over(a, b) is not c:
            problems.append(f"over product {a}/{b}")
    for a, b, c in tables.UNDER_EXAMPLES:
        if under(a, b) is not c:
            problems.append(f"under product {a}\\{b}")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.2f}s")
    report(
        1,
        "small-tree tables reproduced exactly (antipode, charge maps, "
        "both renormalization coactions, products)",
        not problems,
        "; ".join(problems),
    )


def test_criterion_2_hopf_axioms():
    start = time.monotonic()
    results = []
    for tag in Tag:
        results.append(checks.check_coassoc(tag, 4))
        results.append(checks.check_counit(tag, 4))
        results.append(checks.check_antipode(tag, 4))
    results.append(checks.check_alpha_trees(6))
    results.append(checks.check_qed_hopf(4))
    elapsed = time.monotonic() - start
    bad = [r for r in results if not r.ok]
    if elapsed >= 60:
        bad.append(checks.CheckResult("runtime", False, f"{elapsed:.1f}s"))
    report(
        2,
        "Hopf axioms for all four algebras, single trees to order 6, and "
        "the smash product, total order <= 4",
        not bad,
        "; ".join(f"{r.name}: {r.detail}" for r in bad),
    )


def test_criterion_3_coaction_laws():
    results = [
        checks.check_coaction_d1("gamma", 4),
        checks.check_coaction_d1("e", 4),
        checks.check_coaction_d1("alpha", 4),
        checks.check_coaction_d1("alpha-nc", 4),
        checks.check_coaction_d2("gamma", 4),
        checks.check_coaction_d2("e", 4),
        checks.check_electron_coaction_law(4),
        checks.check_photon_coassoc(4),
        checks.check_intertwine(4),
        checks.check_single_tree_restriction(6),
    ]
    bad = [r for r in results if not r.ok]
    report(
        3,
        "coaction compatibility laws, smash-coproduct consistency, "
        "intertwining, and the single-tree restriction to order 6",
        not bad,
        "; ".join(f"{r.name}: {r.detail}" for r in bad),
    )


def test_criterion_4_counts():
    results = [checks.check_catalan(12), checks.check_term_counts(8)]
    bad = [r for r in results if not r.ok]
    report(
        4,
        "Catalan enumeration to order 12 (208012) and pruning term counts "
        "to order 8",
        not bad,
        "; ".join(f"{r.name}: {r.detail}" for r in bad),
    )


def _random_gp(rng, ring, n=4):
    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    from treehopf.series import Matrix, gp

    if ring == "scalar":
        c0 = frac() or Fraction(1)
        return gp([c0] + [frac() for _ in range(n)])
    while True:
        m = Matrix.from_rows([[frac() for _ in range(2)] for _ in range(2)])
        try:
            m.inverse()
            break
        except ValueError:
            continue
    return gp(
        [m]
        + [
            Matrix.from_rows([[frac() for _ in range(2)] for _ in range(2)])
            for _ in range(n)
        ]
    )


def _random_gc(rng, n=4):
    def frac():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    from treehopf.series import gc

    return gc([Fraction(0), frac() or Fraction(1)] + [frac() for _ in range(n - 1)])


def test_criterion_5_series_groups():
    n = 4
    problems = []
    for ring in ("scalar", "matrix"):
        for seed in range(50):
            rng = random.Random(f"acc5-{ring}-{seed}")
            f = _random_gp(rng, ring, n)
            g = _random_gp(rng, ring, n)
            h = _random_gp(rng, ring, n)
            phi = _random_gc(rng, n)
            psi = _random_gc(rng, n)
            if (f * g) * h != f * (g * h):
                problems.append(f"{ring} seed {seed}: product associativity")
            if f * f.inverse() != one(n):
                problems.append(f"{ring} seed {seed}: inverse")
            if gc_compose(gc_compose(phi, psi), phi) != gc_compose(
                phi, gc_compose(psi, phi)
            ):
                problems.append(f"{ring} seed {seed}: composition associativity")
            if gp_action(f * g, phi) != gp_action(f, phi) * gp_action(g, phi):
                problems.append(f"{ring} seed {seed}: action/product")
            if gp_action(f, gc_compose(phi, psi)) != gp_action(gp_action(f, phi), psi):
                problems.append(f"{ring} seed {seed}: action/composition")
            if not cocycle_check(divide_by_alpha, phi, psi):
                problems.append(f"{ring} seed {seed}: cocycle identity")
            lhs = sigma_action(f, gc_compose(phi, psi), divide_by_alpha)
            rhs = sigma_action(
                sigma_action(f, phi, divide_by_alpha), psi, divide_by_alpha
            )
            if lhs.truncate(n - 1) != rhs.truncate(n - 1):
                problems.append(f"{ring} seed {seed}: twisted action")
            if problems:
                break
        if problems:
            break
    report(
        5,
        "series group axioms, substitution action laws, and the "
        "divide-by-indeterminate cocycle over 50 seeds, scalar and 2x2",
        not problems,
        "; ".join(problems[:3]),
    )


def test_criterion_6_propagator_consistency():
    start = time.monotonic()
    problems = []
    for seed in range(20):
        u = renorm.make_toy_character(Tag.HGAMMA, seed, max_order=4)
        ue = renorm.make_toy_character(Tag.HE, seed, max_order=4)
        cg = renorm.make_toy_character(Tag.HALPHA, seed + 1000, max_order=4)
        ce = renorm.make_toy_character(Tag.HE, seed + 2000, max_order=4)
        photon = renorm.dyson_check_photon(u, cg, 4)
        electron = renorm.dyson_check_electron(ue, cg, ce, 4)
        if not photon.ok:
            problems.append(f"photon scalar seed {seed} order {photon.first_failure}")
        if not electron.ok:
            problems.append(
                f"electron scalar seed {seed} order {electron.first_failure}"
            )
    for seed in range(5):
        u = renorm.make_toy_character(Tag.HGAMMA, seed, kind="matrix", d=4, max_order=4)
        ue = renorm.make_toy_character(Tag.HE, seed, kind="matrix", d=4, max_order=4)
        cg = renorm.make_toy_character(Tag.HALPHA, seed + 1000, max_order=4)
        ce = renorm.make_toy_character(Tag.HE, seed + 2000, max_order=4)
        if not renorm.dyson_check_photon(u, cg, 4).ok:
            problems.append(f"photon matrix seed {seed}")
        if not renorm.dyson_check_electron(ue, cg, ce, 4).ok:
            problems.append(f"electron matrix seed {seed}")
    elapsed = time.monotonic() - start
    if elapsed >= 30:
        problems.append(f"too slow: {elapsed:.1f}s")
    report(
        6,
        "bare vs renormalized propagator identities exact to fourth order, "
        "20 scalar seeds plus 4x4 matrix amplitudes",
        not problems,
        "; ".join(problems[:3]),
    )


def test_criterion_7_negative_controls():
    corrupted = checks.corrupt_map(MAPS, "delta-alpha")
    results = checks.run_suite("coassoc", order=3, maps=corrupted)
    failing = [r for r in results if not r.ok]
    detail_ok = bool(failing) and all(r.detail for r in failing)
    if failing:
        # surface the counterexample the sweep found
        REPORT_LINES.append(f"    counterexample: {failing[0].detail}")
        print(f"    counterexample: {failing[0].detail}")
    report(
        7,
        "corrupting one structure map is caught by the sweeps with a "
        "printed counterexample",
        detail_ok,
        "corruption went unnoticed" if not failing else "missing detail",
    )
