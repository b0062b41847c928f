"""Truncated series groups: pointwise product, substitution, the twisted
action, and the divide-by-indeterminate cocycle.  All arithmetic is exact."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treehopf.series import (
    Matrix,
    Series,
    cocycle_check,
    divide_by_alpha,
    gc,
    gc_compose,
    gp,
    gp_action,
    indeterminate,
    one,
    semidirect_multiply,
    sigma_action,
)

N = 4


def _rand_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _rand_unit(rng, ring):
    if ring == "scalar":
        v = _rand_fraction(rng)
        return v if v != 0 else Fraction(1)
    m = Matrix.from_rows([[_rand_fraction(rng) for _ in range(2)] for _ in range(2)])
    try:
        m.inverse()
        return m
    except ValueError:
        return Matrix.identity(2)


def _rand_value(rng, ring):
    if ring == "scalar":
        return _rand_fraction(rng)
    return Matrix.from_rows([[_rand_fraction(rng) for _ in range(2)] for _ in range(2)])


def random_gp(seed, ring="scalar", n=N):
    rng = random.Random(f"gp-{seed}-{ring}")
    return gp([_rand_unit(rng, ring)] + [_rand_value(rng, ring) for _ in range(n)])


def random_gc(seed, n=N):
    # substitution series keep scalar coefficients: composition of the
    # twisted action multiplies them into both factors
    rng = random.Random(f"gc-{seed}")
    lead = _rand_fraction(rng)
    return gc(
        [Fraction(0), lead if lead != 0 else Fraction(1)]
        + [_rand_fraction(rng) for _ in range(n - 1)]
    )


SEEDS = range(50)


class TestMatrix:
    def test_inverse(self):
        m = Matrix.from_rows([[1, 2], [3, 5]])
        assert m @ m.inverse() == Matrix.identity(2)
        assert m.inverse() @ m == Matrix.identity(2)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [2, 4]]).inverse()


class TestProductGroup:
    @pytest.mark.parametrize("ring", ["scalar", "matrix"])
    def test_group_axioms(self, ring):
        for seed in SEEDS:
            f = random_gp(3 * seed, ring)
            g = random_gp(3 * seed + 1, ring)
            h = random_gp(3 * seed + 2, ring)
            assert (f * g) * h == f * (g * h)
            assert f * one(N) == f
            assert one(N) * f == f
            assert f * f.inverse() == one(N)
            assert f.inverse() * f == one(N)

    def test_gp_requires_invertible_constant(self):
        with pytest.raises(ValueError):
            gp([Fraction(0), Fraction(1)])


class TestSubstitutionGroup:
    def test_group_axioms(self):
        for seed in SEEDS:
            phi = random_gc(3 * seed)
            psi = random_gc(3 * seed + 1)
            chi = random_gc(3 * seed + 2)
            assert gc_compose(gc_compose(phi, psi), chi) == gc_compose(
                phi, gc_compose(psi, chi)
            )
            assert gc_compose(phi, indeterminate(N)) == phi
            assert gc_compose(indeterminate(N), phi) == phi

    def test_inverse_by_solving(self):
        # compositional inverse found by fixed point iteration must invert
        for seed in range(10):
            phi = random_gc(seed)
            inv = _compositional_inverse(phi)
            assert gc_compose(phi, inv) == indeterminate(N)
            assert gc_compose(inv, phi) == indeterminate(N)

    def test_gc_requires_zero_constant_and_unit_linear(self):
        with pytest.raises(ValueError):
            gc([Fraction(1), Fraction(1)])
        with pytest.raises(ValueError):
            gc([Fraction(0), Fraction(0), Fraction(1)])


def _compositional_inverse(phi: Series) -> Series:
    """Solve phi(inv) = alpha coefficient by coefficient: the k-th
    coefficient of phi(inv) depends linearly on inv[k] with slope phi[1]."""
    coeffs = [Fraction(0), Fraction(1) / phi[1]] + [Fraction(0)] * (N - 1)
    for k in range(2, N + 1):
        residue = gc_compose(phi, Series(coeffs))[k]
        coeffs[k] -= residue / phi[1]
    return Series(coeffs)


class TestAction:
    @pytest.mark.parametrize("ring", ["scalar", "matrix"])
    def test_right_action_laws(self, ring):
        for seed in SEEDS:
            f = random_gp(2 * seed, ring)
            g = random_gp(2 * seed + 1, ring)
            phi = random_gc(2 * seed)
            psi = random_gc(2 * seed + 1)
            # compatible with the product on each side
            assert gp_action(f * g, phi) == gp_action(f, phi) * gp_action(g, phi)
            # acting by a composite equals acting twice, left factor first
            assert gp_action(f, gc_compose(phi, psi)) == gp_action(
                gp_action(f, phi), psi
            )
            assert gp_action(f, indeterminate(N)) == f

    def test_semidirect_group_law(self):
        for seed in range(25):
            a = (random_gc(4 * seed), random_gp(4 * seed))
            b = (random_gc(4 * seed + 1), random_gp(4 * seed + 1))
            c = (random_gc(4 * seed + 2), random_gp(4 * seed + 2))
            lhs = semidirect_multiply(semidirect_multiply(a, b), c)
            rhs = semidirect_multiply(a, semidirect_multiply(b, c))
            assert lhs[0] == rhs[0] and lhs[1] == rhs[1]


class TestCocycle:
    def test_divide_by_alpha_shape(self):
        phi = random_gc(7)
        s = divide_by_alpha(phi)
        assert s.order == phi.order - 1
        assert s[0] == phi[1]

    def test_divide_by_alpha_requires_zero_constant(self):
        with pytest.raises(ValueError):
            divide_by_alpha(one(N))

    def test_cocycle_identity(self):
        for seed in SEEDS:
            phi = random_gc(2 * seed)
            psi = random_gc(2 * seed + 1)
            assert cocycle_check(divide_by_alpha, phi, psi)

    def test_twisted_action_is_an_action(self):
        # f .sigma (phi psi) == (f .sigma phi) .sigma psi thanks to the
        # cocycle identity, checked at the common truncation
        for seed in range(25):
            f = random_gp(seed)
            phi = random_gc(2 * seed)
            psi = random_gc(2 * seed + 1)
            lhs = sigma_action(f, gc_compose(phi, psi), divide_by_alpha)
            rhs = sigma_action(
                sigma_action(f, phi, divide_by_alpha), psi, divide_by_alpha
            )
            assert lhs.truncate(N - 1) == rhs.truncate(N - 1)


class TestTruncation:
    @given(st.integers(0, 100))
    def test_mixed_order_truncates_to_smaller(self, seed):
        f = random_gp(seed, n=4)
        g = random_gp(seed + 1, n=6)
        assert (f * g).order == 4

    def test_compose_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            one(3).compose(one(3))
