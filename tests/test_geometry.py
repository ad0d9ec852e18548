import numpy as np
import pytest

from rydclock.geometry import (ArrayGeometry, build_subarrays, distance_matrix,
                               DEFAULT_LATTICE_CONSTANT)


def test_single_block_shape_and_labels():
    g = build_subarrays(2, 3, 2, 2, 1)
    assert g.n_atoms == 6
    assert g.labels == ("A",)
    assert len(set(g.sites)) == 6


def test_two_subarrays_disjoint_and_gap():
    g = build_subarrays(2, 2, 2, 2, n_subarrays=2, gap=12)
    assert g.labels == ("A", "B")
    xa = max(s[0] for i, s in enumerate(g.sites) if g.subarray_labels[i] == "A")
    xb = min(s[0] for i, s in enumerate(g.sites) if g.subarray_labels[i] == "B")
    assert xb - xa == 12


def test_distances_match_lattice_constant():
    g = build_subarrays(1, 2, 2, 1, 1)
    m = distance_matrix(g)
    assert m[0, 1] == pytest.approx(2 * DEFAULT_LATTICE_CONSTANT)
    assert m[0, 0] == 0.0


def test_duplicate_sites_rejected():
    with pytest.raises(ValueError):
        ArrayGeometry(sites=((0, 0), (0, 0)), subarray_labels=("A", "A"))


def test_invalid_build_args_rejected():
    with pytest.raises(ValueError):
        build_subarrays(0, 2, 2, 2)
    with pytest.raises(ValueError):
        build_subarrays(2, 2, 0, 2)

