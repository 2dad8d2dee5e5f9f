"""The reference arithmetic on its own, without scatpoly."""

import random

import numpy as np
import pytest
import sympy

from ref import RefField, nullspace_modp, rank_modp


def first_irreducible(p, N):
    x = sympy.Symbol("x")
    for c in range(p ** N):
        coeffs = [(c // p ** i) % p for i in range(N)] + [1]
        if sympy.Poly(coeffs[::-1], x, modulus=p).is_irreducible:
            return coeffs


@pytest.fixture(scope="module", params=[(3, 1, 3), (5, 1, 3), (3, 2, 3), (7, 1, 3)])
def field(request):
    p, e, t = request.param
    return RefField(p, e, t, first_irreducible(p, 2 * e * t))


def test_every_element_is_fixed_by_the_full_frobenius(field):
    rng = random.Random(0)
    for x in [0, 1, 2, field.p] + [rng.randrange(field.order) for _ in range(20)]:
        assert field.pow(x, field.order) == x
        assert field.frob(x, field.n) == x


def test_frobenius_is_additive_and_multiplicative(field):
    rng = random.Random(1)
    for _ in range(20):
        a, b = rng.randrange(field.order), rng.randrange(field.order)
        assert field.frob_p(field.add(a, b)) == field.add(field.frob_p(a), field.frob_p(b))
        assert field.frob_p(field.mul(a, b)) == field.mul(field.frob_p(a), field.frob_p(b))


def test_matrices_act_like_the_scalars(field):
    rng = random.Random(2)
    a, b = rng.randrange(1, field.order), rng.randrange(field.order)
    assert field.apply(field.mat_mul(a), b) == field.mul(a, b)
    assert field.apply(field.mat_frob(1), b) == field.frob(b)
    coeffs = [rng.randrange(field.order) for _ in range(field.n)]
    want = 0
    for i, c in enumerate(coeffs):
        want = field.add(want, field.mul(c, field.frob(b, i)))
    assert field.apply(field.qpoly(coeffs), b) == want
    assert field.mul(a, field.inv(a)) == 1


def test_log_tables_cover_the_group():
    F = RefField(3, 1, 3, first_irreducible(3, 6))
    exp, log = F.tables()
    assert sorted(exp.tolist()) == list(range(1, F.order))
    assert F.mul(int(exp[5]), int(exp[7])) == int(exp[12])
    assert (exp[log[1:]] == np.arange(1, F.order)).all()


def test_reducible_modulus_is_refused():
    with pytest.raises(ValueError):
        RefField(3, 1, 3, [2, 0, 0, 0, 0, 0, 1])  # x^6 + 2 = (x^2 + 2)(...)


def test_nullspace_mod_p():
    A = np.array([[1, 2, 0, 1], [0, 1, 1, 1]])
    K = nullspace_modp(A, 3)
    assert len(K) == 2 and not (A @ K.T % 3).any()
    assert rank_modp(K, 3) == 2
