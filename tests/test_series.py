"""Truncated series groups: pointwise product, substitution, the twisted
action, and the divide-by-indeterminate cocycle.  All arithmetic is exact."""

import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from treehopf.series import (
    Matrix,
    Series,
    r_add,
    r_mul,
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

    def test_floats_refused(self):
        m = Matrix.identity(2)
        for build in (
            lambda: Matrix.from_rows([[0.1]]),
            lambda: Matrix.from_rows([[1, Fraction(1, 2)], [0, 0.25]]),
            lambda: m.scale(0.5),
            lambda: r_mul(m, 0.5),
            lambda: r_mul(0.5, m),
            lambda: r_add(m, 0.5),
            lambda: r_add(0.5, m),
            lambda: r_add(m, 0.0),
            lambda: r_add(0.0, m),
            lambda: Matrix([[0.5]]),
            lambda: Series([0.5]),
            lambda: Series([Fraction(1), m, 0.5]),
            lambda: gp([0.5, Fraction(1)]),
            lambda: gc([0, 0.5]),
        ):
            with pytest.raises(TypeError, match="exact"):
                build()

    def test_exact_scalars_accepted(self):
        assert Matrix.from_rows([["1/2", 3]]).rows == ((Fraction(1, 2), Fraction(3)),)
        assert Matrix.identity(1).scale("-2/4") == Matrix.from_rows([[Fraction(-1, 2)]])
        assert Series(["0.1", 2]).coeffs == (Fraction(1, 10), Fraction(2))


# -- a second route for the integer matrix ------------------------------------
# Entrywise Fraction arithmetic on row tuples, as Matrix did before it kept
# integer numerators over one denominator.


def ref_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def ref_neg(a):
    return tuple(tuple(-x for x in r) for r in a)


def ref_matmul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def ref_scale(a, k):
    k = Fraction(k)
    return tuple(tuple(k * x for x in r) for r in a)


def ref_det(a):
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * ref_det(tuple(r[:j] + r[j + 1 :] for r in a[1:]))
        for j in range(len(a))
    )


def ref_inverse(a):
    """Adjugate over determinant; None for a singular matrix."""
    d = len(a)
    det = ref_det(a)
    if det == 0:
        return None
    if d == 1:
        return ((1 / det,),)

    def minor(i, j):
        return tuple(r[:j] + r[j + 1 :] for k, r in enumerate(a) if k != i)

    return tuple(
        tuple((-1) ** (i + j) * ref_det(minor(j, i)) / det for j in range(d)) for i in range(d)
    )


def _rand_matrix(rng, d):
    shape = rng.choice(("dense", "dense", "dense", "zero", "identity", "negative", "integer"))
    if shape == "zero":
        return Matrix.zeros(d)
    if shape == "identity":
        return Matrix.identity(d)
    if shape == "integer":
        return Matrix.from_rows([[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)])
    m = Matrix.from_rows(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(d)] for _ in range(d)]
    )
    return -m if shape == "negative" else m


def _assert_canonical(m):
    assert m.den > 0
    assert gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert all(type(x) is int for r in m.num for x in r)
    again = Matrix.from_rows(m.rows)
    assert again == m and hash(again) == hash(m)
    assert (again.num, again.den) == (m.num, m.den)


class TestIntegerMatrixAgainstFractions:
    SCALES = (0, 1, -1, 3, Fraction(-2, 3), Fraction(5, 7), Fraction(0, 4))

    def test_operations_match_entrywise_fractions(self):
        rng = random.Random(909)
        singular = 0
        for _ in range(200):
            d = rng.randint(1, 4)
            a, b = _rand_matrix(rng, d), _rand_matrix(rng, d)
            ra, rb = a.rows, b.rows
            assert all(type(x) is Fraction for r in ra for x in r)
            results = [
                (a + b, ref_add(ra, rb)),
                (a - b, ref_add(ra, ref_neg(rb))),
                (-a, ref_neg(ra)),
                (a @ b, ref_matmul(ra, rb)),
                (b @ a, ref_matmul(rb, ra)),
            ]
            k = rng.choice(self.SCALES + (Fraction(rng.randint(-9, 9), rng.randint(1, 9)),))
            results.append((a.scale(k), ref_scale(ra, k)))
            for got, want in results:
                assert got.rows == want
                assert got.is_zero() == all(x == 0 for r in want for x in r)
                _assert_canonical(got)
            want_inv = ref_inverse(ra)
            if want_inv is None:
                singular += 1
                with pytest.raises(ValueError):
                    a.inverse()
            else:
                assert a.inverse().rows == want_inv
                _assert_canonical(a.inverse())
        assert 0 < singular < 200

    def test_equal_values_by_different_routes(self):
        half = Matrix.from_rows([[Fraction(1, 2)]])
        pairs = [
            (half + half, Matrix.identity(1)),
            (Matrix.zeros(2).scale(Fraction(1, 3)), Matrix.zeros(2)),
            (Matrix.identity(2).scale(Fraction(1, 3)).scale(3), Matrix.identity(2)),
            (Matrix.from_rows([[Fraction(2, 4), "3/6"]]), Matrix.from_rows([[Fraction(1, 2)] * 2])),
            (Matrix.identity(3) - Matrix.identity(3), Matrix.zeros(3)),
            (Matrix.from_rows([[1, 2], [3, 5]]).inverse().inverse(), Matrix.from_rows([[1, 2], [3, 5]])),
        ]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert (x.num, x.den) == (y.num, y.den)
            _assert_canonical(x)
        assert Matrix.identity(2) != Matrix.identity(2).scale(Fraction(1, 2))
        assert Matrix.identity(1) != Fraction(1)

    def test_scalar_zero_added_returns_the_matrix(self):
        m = Matrix.from_rows([[1, Fraction(1, 3)], [0, 2]])
        for zero in (0, Fraction(0)):
            assert r_add(m, zero) is m
            assert r_add(zero, m) is m
        assert r_add(m, 2) == m + Matrix.identity(2).scale(2)

    def test_immutable_and_repr(self):
        m = Matrix.from_rows([[1, Fraction(1, 2)]])
        with pytest.raises(AttributeError):
            m.den = 1
        assert repr(m) == "Matrix(rows=((Fraction(1, 1), Fraction(1, 2)),))"
        assert pickle.loads(pickle.dumps(m)) == m

    def test_constructor_takes_rows(self):
        m = Matrix.from_rows([[1, Fraction(1, 2)], [Fraction(-2, 6), 0]])
        for built in (Matrix(m.rows), Matrix(rows=m.rows), eval(repr(m))):
            assert built == m and hash(built) == hash(m)
            _assert_canonical(built)


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


class TestShapesAndSeriesEquality:
    """Matrix arithmetic refuses mismatched shapes, and ``Series`` equality
    and hash agree when a scalar c meets the matrix c·I."""

    def test_add_refuses_mismatched_shapes(self):
        with pytest.raises(ValueError):
            Matrix.identity(2) + Matrix.identity(3)
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2]]) + Matrix.from_rows([[1], [2]])
        with pytest.raises(ValueError):
            Matrix.identity(2) - Matrix.identity(3)

    def test_matmul_refuses_mismatched_shapes(self):
        with pytest.raises(ValueError):
            Matrix.identity(2) @ Matrix.from_rows([[1, 2, 3]])
        with pytest.raises(ValueError):
            Matrix.identity(3) @ Matrix.identity(2)

    def test_matmul_of_compatible_rectangles(self):
        row = Matrix.from_rows([[1, 2, 3]])
        col = Matrix.from_rows([[1], [Fraction(1, 2)], [0]])
        assert row @ col == Matrix.from_rows([[2]])
        assert (col @ row).rows == ((1, 2, 3), (Fraction(1, 2), 1, Fraction(3, 2)), (0, 0, 0))

    def test_ragged_rows_refused(self):
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])

    def test_central_matrix_hashes_as_its_scalar(self):
        pairs = [
            (Series([1]), Series([Matrix.identity(2)])),
            (Series([Fraction(1, 3), 0]), Series([Matrix.identity(3).scale(Fraction(1, 3)), 0])),
            (Series([0, -2]), Series([Matrix.zeros(2), Matrix.identity(2).scale(-2)])),
        ]
        for a, b in pairs:
            assert a == b and b == a
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_noncentral_matrices_stay_apart(self):
        m = Matrix.from_rows([[1, 2], [0, 1]])
        assert Series([m]) != Series([1])
        assert Series([m]) == Series([Matrix.from_rows([[1, 2], [0, 1]])])
        assert hash(Series([m])) == hash(Series([Matrix.from_rows([[1, 2], [0, 1]])]))

    def test_equality_of_different_sizes_is_false(self):
        assert (Series([Matrix.identity(2)]) == Series([Matrix.identity(3)])) is False
        assert (Series([Matrix.from_rows([[1, 0]])]) == Series([1])) is False
        for c in (0, 5):
            assert (Series([Matrix.from_rows([])]) == Series([c])) is False
        assert Series([Matrix.zeros(2)]) != Series([Matrix.zeros(3)])
        assert Series([Matrix.identity(2)]) != Series([Matrix.from_rows([[1, 2], [3, 4], [5, 6]])])
