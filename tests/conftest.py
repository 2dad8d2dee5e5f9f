import functools

import pytest
from hypothesis import settings

from scatpoly import fields
from scatpoly.fields import FieldCtx, FieldSpec, build_field
from scatpoly.scattered import shift_ranks

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
