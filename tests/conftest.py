import functools

import pytest
from hypothesis import settings

from scatpoly import fields
import numpy as np

from scatpoly.fields import FieldCtx, FieldSpec, build_field
from scatpoly.linpoly import LinPoly
from scatpoly.scattered import build_psi, is_scattered_fibers, shift_ranks

# fixed examples, so every run checks the same inputs; each property test
# sets only its own max_examples
settings.register_profile("scatpoly", derandomize=True, deadline=None)
settings.load_profile("scatpoly")


@pytest.fixture(scope="session")
def bare_field():
    """Factory of fresh contexts, outside the build_field cache, whose
    tables are not built yet: the eager bound is 0 while each is made."""
    def make(p, e, t):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fields, "EAGER_LIMIT", 0)
            return FieldCtx(FieldSpec(p, e, t))
    return make


@pytest.fixture(scope="session")
def ctx33():
    return build_field(3, 1, 3)


@pytest.fixture(scope="session")
def ctx53():
    return build_field(5, 1, 3)


@pytest.fixture(scope="session")
def ctx34():
    return build_field(3, 1, 4)


@pytest.fixture(scope="session")
def ctx923():
    # q = 9 = 3^2 exercises the e > 1 paths
    return build_field(3, 2, 3)


@pytest.fixture(scope="session")
def full_shift_ranks():
    """shift_ranks(f) over every shift, the sweep with no orbit reduction,
    made once per map in a session: at q = 9 each takes several seconds."""
    return functools.cache(shift_ranks)


@pytest.fixture(scope="session")
def cut_maps():
    """Maps by field, made once a session, on which the sweeps' symmetry
    cuts fire: every psi_k (m = 2 at t even and gcd(k, t) = 1, and psi_t =
    x^(q^t)), two seeded maps with two or three odd support indices that
    are not scattered (m = 2, or 4 at n = 8 when the indices agree mod 4),
    and the monomials x^(q^s), s in {1, 2, t}, with coefficient 1 (d = 1)
    or omega (d = e*n, so sigma_d is the identity), m the largest divisor
    of n prime to s mod m. See LinPoly.support_coset."""
    @functools.cache
    def make(ctx):
        maps = {f"psi_{k}": build_psi(ctx, k) for k in range(1, ctx.n)}
        rng = np.random.default_rng(ctx.order + 2)
        odd = list(range(1, ctx.n, 2))
        while len(maps) < ctx.n + 1:
            coeffs = [0] * ctx.n
            for i in rng.choice(odd, size=int(rng.integers(2, 4)), replace=False):
                coeffs[int(i)] = int(rng.integers(1, ctx.order))
            f = LinPoly(ctx, coeffs)
            if not is_scattered_fibers(f).scattered:
                maps[f"odd map {coeffs}"] = f
        for s, c in ((1, 1), (2, ctx.omega), (ctx.t, 1)):
            maps[f"{c}*x^(q^{s})"] = LinPoly.monomial(ctx, c, s)
        return maps
    return make
