import numpy as np
import pytest

from gasketlab import geom, spectra


@pytest.fixture(scope="session")
def unit_triple():
    return geom.triple_from_curvatures(1.0, 1.0, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


class _ShortEigsh:
    """``scipy.sparse.linalg`` whose eigsh drops the eigenvalue nearest sigma.

    The first ``honest`` calls are passed through unchanged.
    """

    def __init__(self, spla):
        self._spla = spla
        self.honest = 0

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def eigsh(self, A, k, sigma, **kwargs):
        lam, Y = self._spla.eigsh(A, k=k, sigma=sigma, **kwargs)
        if self.honest > 0:
            self.honest -= 1
            return lam, Y
        j = int(np.argmin(np.abs(lam - sigma)))
        return np.delete(lam, j), np.delete(Y, j, axis=1)


@pytest.fixture()
def short_eigsh(monkeypatch):
    """Every shift-invert slice comes back one eigenvalue short.

    Set ``honest`` on the returned object to let the first calls through.
    """
    short = _ShortEigsh(spectra.spla)
    monkeypatch.setattr(spectra, "spla", short)
    return short


def random_triple(rng, lo=0.1, hi=10.0):
    """Random curvature triple, randomly rotated and translated."""
    a, b, c = rng.uniform(lo, hi, 3)
    t = geom.triple_from_curvatures(a, b, c)
    return geom.transform_triple(
        t,
        scale=1.0,
        rotate=float(rng.uniform(0.0, 6.28)),
        translate=(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
    )
