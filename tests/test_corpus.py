from itertools import product

import numpy as np
import pytest

from gmtkit.corpus import KINDS, GeneratorSpec, generate, random_sparse_with_certificate
from gmtkit.errors import InvalidInputError
from gmtkit.sparsify import check_sparse


def test_plane_patch_shape():
    cells = generate(GeneratorSpec(kind="plane-patch", n=2, depth=6, k=1))
    got = cells.sorted_cells()
    assert len(got) == 64
    assert all(c[1] == 0 for c in got)
    assert [c[0] for c in got] == list(range(64))


def test_plane_patch_codimension():
    cells = generate(GeneratorSpec(kind="plane-patch", n=3, depth=4, k=2))
    assert len(cells.sorted_cells()) == 16 * 16
    assert all(c[2] == 0 for c in cells.sorted_cells())
    with pytest.raises(InvalidInputError):
        generate(GeneratorSpec(kind="plane-patch", n=2, depth=6, k=2))
    with pytest.raises(InvalidInputError):
        generate(GeneratorSpec(kind="plane-patch", n=2, depth=23, k=1))


def test_corner_cantor_counts():
    for g in range(1, 6):
        cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=2 * g))
        assert len(cells.sorted_cells()) == 4**g


def test_corner_cantor_first_generation():
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=2))
    assert set(cells.sorted_cells()) == {(0, 0), (0, 3), (3, 0), (3, 3)}


def test_corner_cantor_rejects_odd_depth():
    with pytest.raises(InvalidInputError):
        generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=5))
    with pytest.raises(InvalidInputError):
        generate(GeneratorSpec(kind="four-corner-cantor", n=3, depth=4))


def test_product_cantor_matches_corner_cantor():
    a = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=8))
    b = generate(GeneratorSpec(kind="product-cantor", n=2, depth=8))
    assert a.sorted_cells() == b.sorted_cells()


def test_product_cantor_other_dimensions():
    cells = generate(GeneratorSpec(kind="product-cantor", n=3, depth=4, levels_per_generation=2))
    assert len(cells.sorted_cells()) == 8**2
    with pytest.raises(InvalidInputError):
        generate(GeneratorSpec(kind="product-cantor", n=2, depth=5, levels_per_generation=2))


def test_random_sparse_certificate_checks():
    spec = GeneratorSpec(kind="random-sparse", n=2, depth=12, ell=4, seed=0)
    cells, cert = random_sparse_with_certificate(spec)
    assert cells.depth == 12
    assert cert.scales == (1, 6)
    assert check_sparse(cells, cert)


def test_random_sparse_reproducible(tmp_path):
    spec = GeneratorSpec(kind="random-sparse", n=2, depth=12, ell=4, seed=9)
    a, _ = random_sparse_with_certificate(spec)
    b, _ = random_sparse_with_certificate(spec)
    assert a.sorted_cells() == b.sorted_cells()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    a.save(p1)
    b.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    other, _ = random_sparse_with_certificate(
        GeneratorSpec(kind="random-sparse", n=2, depth=12, ell=4, seed=10)
    )
    assert other.sorted_cells() != a.sorted_cells()


def test_random_sparse_needs_room():
    with pytest.raises(InvalidInputError):
        random_sparse_with_certificate(GeneratorSpec(kind="random-sparse", n=2, depth=3, ell=4))
    with pytest.raises(InvalidInputError):
        random_sparse_with_certificate(GeneratorSpec(kind="random-sparse", n=2, depth=8, ell=0))
    with pytest.raises(InvalidInputError):
        random_sparse_with_certificate(GeneratorSpec(kind="plane-patch", n=2, depth=8))


def test_random_dense_basics():
    spec = GeneratorSpec(kind="random-dense", n=2, depth=6, seed=3, keep_probability=0.5)
    cells = generate(spec)
    assert cells.sorted_cells()
    assert cells.sorted_cells() == generate(spec).sorted_cells()
    assert generate(GeneratorSpec(kind="random-dense", n=2, depth=6, seed=4)).sorted_cells() != cells.sorted_cells()
    with pytest.raises(InvalidInputError):
        generate(GeneratorSpec(kind="random-dense", n=3, depth=8))


def test_random_dense_never_empty():
    spec = GeneratorSpec(kind="random-dense", n=2, depth=2, seed=0, keep_probability=1e-9)
    assert len(generate(spec).sorted_cells()) == 1


def test_union_kind():
    parts = (
        GeneratorSpec(kind="plane-patch", n=2, depth=4, k=1),
        GeneratorSpec(kind="four-corner-cantor", n=2, depth=4),
    )
    cells = generate(GeneratorSpec(kind="union", n=2, depth=4, parts=parts))
    a = set(generate(parts[0]).sorted_cells())
    b = set(generate(parts[1]).sorted_cells())
    assert set(cells.sorted_cells()) == a | b
    with pytest.raises(InvalidInputError):
        generate(GeneratorSpec(kind="union", n=2, depth=4))


def test_generator_spec_validation():
    with pytest.raises(InvalidInputError):
        GeneratorSpec(kind="no-such-kind")
    with pytest.raises(InvalidInputError):
        GeneratorSpec(kind="plane-patch", n=0)
    with pytest.raises(InvalidInputError):
        GeneratorSpec(kind="random-dense", keep_probability=0.0)
    assert set(KINDS) == {
        "plane-patch",
        "four-corner-cantor",
        "product-cantor",
        "random-sparse",
        "random-dense",
        "union",
    }


def test_array_generators_match_tuple_loops():
    """The generators build index arrays; these are the same sets built one tuple at a time."""
    for n, k, depth in ((2, 1, 5), (3, 2, 3), (3, 1, 4)):
        want = {free + (0,) * (n - k) for free in product(range(1 << depth), repeat=k)}
        assert generate(GeneratorSpec(kind="plane-patch", n=n, depth=depth, k=k)).cells == want
    cells = [(0, 0)]
    for depth in range(2, 9, 2):
        cells = [(4 * i + a, 4 * j + b) for i, j in cells for a, b in product((0, 3), repeat=2)]
        assert generate(GeneratorSpec(kind="four-corner-cantor", depth=depth)).cells == set(cells)
    for n, a, depth in ((1, 2, 6), (2, 1, 4), (3, 3, 6)):
        cells = [(0,) * n]
        for _ in range(depth // a):
            cells = [tuple((c << a) + p for c, p in zip(cell, picks))
                     for cell in cells for picks in product((0, (1 << a) - 1), repeat=n)]
        spec = GeneratorSpec(kind="product-cantor", n=n, depth=depth, levels_per_generation=a)
        assert generate(spec).cells == set(cells)
    for n, depth, seed in ((2, 4, 0), (3, 2, 5), (1, 6, 2)):
        side = 1 << depth
        keep = np.random.default_rng(seed).random(side**n) < 0.5
        want = {idx for idx, flag in zip(product(range(side), repeat=n), keep) if flag}
        assert generate(GeneratorSpec(kind="random-dense", n=n, depth=depth, seed=seed)).cells == want
