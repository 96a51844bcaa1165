import math

import pytest
from hypothesis import settings

from turbulink.schmidt import BiphotonSpec
from turbulink.temporal import channel_kernel
from turbulink.turbulence import LinkGeometry, TurbulenceProfile

SPEED_OF_LIGHT = 299792458.0
CENTER_WAVELENGTH = 3.95e-6

# Derandomized examples keep property tests reproducible run to run; no
# deadline because single examples are timed on shared, noisy machines.
settings.register_profile("turbulink", derandomize=True, deadline=None, database=None)
settings.load_profile("turbulink")


@pytest.fixture(scope="session")
def paper_spec():
    omega_p = 2.0 * (2.0 * math.pi * SPEED_OF_LIGHT / CENTER_WAVELENGTH)
    return BiphotonSpec(sigma_a=10e12, sigma_b=80e12, omega_p=omega_p)


@pytest.fixture(scope="session")
def paper_geometry():
    return LinkGeometry(
        path_length=3.0e4,
        transmitter_height=19.0,
        receiver_height=19.0,
        waist=0.1457,
        wavelength=CENTER_WAVELENGTH,
    )


@pytest.fixture(scope="session")
def kernel_1e15(paper_spec, paper_geometry):
    return channel_kernel(
        paper_spec, TurbulenceProfile.from_constant(1e-15), paper_geometry, grid_order=64
    )


@pytest.fixture(scope="session")
def kernel_1e16(paper_spec, paper_geometry):
    return channel_kernel(
        paper_spec, TurbulenceProfile.from_constant(1e-16), paper_geometry, grid_order=64
    )


@pytest.fixture(scope="session")
def kernel_zero(paper_spec, paper_geometry):
    return channel_kernel(
        paper_spec, TurbulenceProfile.from_constant(0.0), paper_geometry, grid_order=64
    )
