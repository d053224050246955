import numpy as np
import pytest

from shearvortex import Field, make_grid


@pytest.fixture(scope="session")
def frame_grid():
    """Workhorse self-similar frame grid."""
    return make_grid(16.0, 256, "selfsim")


@pytest.fixture(scope="session")
def phys_grid():
    return make_grid(16.0, 256)


@pytest.fixture(scope="session")
def small_grid():
    return make_grid(16.0, 64, "selfsim")


def localized_field(grid, seed, corr=1.0):
    """Seeded smooth random field under a tight Gaussian envelope.

    Built inline (not via the catalog) so low-level tests do not depend
    on the initial-data module.
    """
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((grid.n, grid.n))
    kx, ky = grid.k[:, None], grid.k[None, :]
    smooth = np.fft.ifft2(np.fft.fft2(noise)
                          * np.exp(-0.5 * corr ** 2 * (kx ** 2 + ky ** 2))).real
    x, y = grid.meshgrid()
    env = np.exp(-(x ** 2 + y ** 2) / (grid.half_width / 14.0) ** 2 / 2.0)
    vals = smooth * env
    return Field(grid, values=vals / np.abs(vals).max())


# points (x, y or xi, eta) that are not real numbers: a float conversion
# would parse the strings and bytes, read None as NaN, drop the imaginary
# parts and read the objects
NON_REAL_POINTS = ["1", b"1", 1j, None, ["1", "2"], np.array([1.0, 0.5j]),
                   np.array([1.0, 0.5], dtype=object)]
