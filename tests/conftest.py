import numpy as np
import pytest

from abreu_bvp import DomainSpec, build_grid


@pytest.fixture(scope="session")
def disk32():
    return build_grid(DomainSpec.disk(1.0), 32)


@pytest.fixture(scope="session")
def disk33():
    return build_grid(DomainSpec.disk(1.0), 33)


@pytest.fixture(scope="session")
def disk64():
    return build_grid(DomainSpec.disk(1.0), 64)


@pytest.fixture(scope="session")
def disk128():
    return build_grid(DomainSpec.disk(1.0), 128)


@pytest.fixture(scope="session")
def ellipse32():
    return build_grid(DomainSpec.ellipse(1.5, 0.75), 32)


@pytest.fixture(scope="session")
def ellipse64():
    return build_grid(DomainSpec.ellipse(1.5, 0.75), 64)


@pytest.fixture(scope="session")
def ellipse128():
    return build_grid(DomainSpec.ellipse(1.5, 0.75), 128)


@pytest.fixture(scope="session")
def interval64():
    return build_grid(DomainSpec.interval(0.0, 1.0), 64)


@pytest.fixture(autouse=True)
def _in_tmp_path(tmp_path, monkeypatch):
    # The CLI writes its outputs to the working directory unless given
    # --out; keep them out of the checkout.
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
