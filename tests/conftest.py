import numpy as np
import pytest

from bohrlift import DirichletPoly


# primes 2 and 7 only: the lift has width 4 and uses coordinates 0 and 3
ON_2_AND_7 = DirichletPoly({1: 1.0, 2: -0.5, 7: 0.8j, 14: 1.5, 49: -0.7, 98: 0.4 - 0.3j})


def random_dirichlet(rng, max_index=1000, max_terms=12, dim=1):
    terms = int(rng.integers(1, max_terms + 1))
    idx = rng.choice(np.arange(1, max_index + 1), size=min(terms, max_index), replace=False)
    if dim == 1:
        coeffs = {int(n): complex(rng.standard_normal(), rng.standard_normal()) for n in idx}
    else:
        coeffs = {
            int(n): rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for n in idx
        }
    return DirichletPoly(coeffs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
