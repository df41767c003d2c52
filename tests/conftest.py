import random

import pytest

from bandedgf.banded import BlockWeights
from bandedgf.fields import PrimeField, QQ

F101 = PrimeField(101)


@pytest.fixture
def qq():
    return QQ


@pytest.fixture
def f101():
    return F101


@pytest.fixture
def weight_factory():
    """Deterministic random block weights over F_101."""

    def make(s, seed, field=F101):
        rng = random.Random(seed)
        def mat():
            return [[field.reduce(rng.randrange(101)) for _ in range(s)] for _ in range(s)]
        return BlockWeights(field, s, mat(), mat(), mat(), mat())

    return make
