import pytest

from bandedgf import fixtures
from bandedgf.banded import block_reduce

from helpers import validate_reduction


def test_example_names_resolve():
    for name in fixtures.EXAMPLE_NAMES:
        spec = fixtures.example_spec(name)
        assert spec.block_size is not None
    with pytest.raises(KeyError):
        fixtures.example_spec("ex9.9")


def test_declared_block_sizes_verify():
    for name in fixtures.EXAMPLE_NAMES:
        spec = fixtures.example_spec(name)
        w = block_reduce(spec, spec.block_size)
        assert validate_reduction(spec, w, 6 * w.s)


def test_run_checks_pass_on_every_example():
    for name in fixtures.EXAMPLE_NAMES:
        report = fixtures.run_checks(name, order=30)
        assert report.checks, name
        assert not report.failures(), (name, report.failures())


def test_run_checks_includes_reconstruction_when_order_allows():
    report = fixtures.run_checks("ex4.2", order=40)
    names = [c.name for c in report.checks]
    assert "reconstruction_recovers_golden" in names
    shallow = fixtures.run_checks("ex4.2", order=30)
    assert "reconstruction_recovers_golden" not in [c.name for c in shallow.checks]


def test_golden_annihilators_are_canonical():
    for poly in (fixtures.ex41_annihilator(), fixtures.ex42_annihilator()):
        from math import gcd

        flat = [c for row in poly.coeffs for c in row]
        assert gcd(*(abs(int(c)) for c in flat)) == 1
        lead = poly.coeffs[poly.dx][poly.dz]
        assert lead > 0
