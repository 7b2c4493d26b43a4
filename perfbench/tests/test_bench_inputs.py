"""The same seed gives byte-identical inputs; another seed changes them."""

import pytest

from perfbench import inputs


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_same_bytes(workload, tmp_path):
    gen = inputs.GENERATORS[workload]
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    argv_a, argv_b = gen(7, a), gen(7, b)
    gen(8, c)
    assert argv_a == argv_b
    assert _files(a) == _files(b)
    assert _files(a).keys() == _files(c).keys()
    assert _files(a) != _files(c)
