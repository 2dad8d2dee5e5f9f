import pytest
from hypothesis import settings

from scatpoly.fields import build_field

# fixed examples, so every run checks the same inputs; each property test
# sets only its own max_examples
settings.register_profile("scatpoly", derandomize=True, deadline=None)
settings.load_profile("scatpoly")


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
