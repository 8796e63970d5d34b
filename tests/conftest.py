import numpy as np
import pytest

import spt_z2 as sz

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25
    from numpy import ComplexWarning


def pytest_configure(config):
    # a cast that silently drops an imaginary part fails the test that makes it
    config.addinivalue_line(
        "filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__name__}")


@pytest.fixture(scope="session")
def aklt_raw():
    return sz.zoo("aklt")


@pytest.fixture(scope="session")
def aklt():
    return sz.normalize(sz.zoo("aklt"))


@pytest.fixture(scope="session")
def aklt_report():
    return sz.z2_index(sz.zoo("aklt"))


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)
