"""2D lattice atom arrays partitioned into independent subarrays."""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

DEFAULT_LATTICE_CONSTANT = 575e-9  # meters


@dataclass(frozen=True)
class ArrayGeometry:
    """Atoms on integer lattice sites, each carrying a subarray label."""

    sites: tuple  # of (ix, iy) integer pairs
    subarray_labels: tuple  # one label per site
    lattice_constant: float = DEFAULT_LATTICE_CONSTANT

    def __post_init__(self):
        if self.lattice_constant <= 0:
            raise ValueError("lattice_constant must be positive")
        if len(self.sites) != len(self.subarray_labels):
            raise ValueError("every site needs exactly one subarray label")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("duplicate lattice sites")

    @property
    def n_atoms(self):
        return len(self.sites)

    @property
    def labels(self):
        """Distinct subarray labels in order of first appearance."""
        seen = []
        for lab in self.subarray_labels:
            if lab not in seen:
                seen.append(lab)
        return tuple(seen)

    def positions(self):
        """Site positions in meters, shape (n_atoms, 2)."""
        return np.asarray(self.sites, dtype=float) * self.lattice_constant

    def subarray_indices(self, label):
        return tuple(i for i, lab in enumerate(self.subarray_labels) if lab == label)


def build_subarrays(rows, cols, spacing_x, spacing_y, n_subarrays=1, gap=12,
                    lattice_constant=DEFAULT_LATTICE_CONSTANT):
    """Tile ``n_subarrays`` identical rows x cols blocks along x with a uniform gap.

    ``spacing_x``/``spacing_y`` and ``gap`` are in lattice units; the gap is the
    x-distance between the last column of one block and the first column of the
    next, and should stay well above the interaction range.
    """
    if rows < 1 or cols < 1 or n_subarrays < 1:
        raise ValueError("rows, cols and n_subarrays must all be >= 1")
    if spacing_x < 1 or spacing_y < 1:
        raise ValueError("spacing must be >= 1 lattice unit")
    if gap < 1:
        raise ValueError("gap must be >= 1 lattice unit")
    if n_subarrays > len(string.ascii_uppercase):
        raise ValueError("too many subarrays to label")

    width = (cols - 1) * spacing_x
    sites = []
    labels = []
    for s in range(n_subarrays):
        x0 = s * (width + gap)
        lab = string.ascii_uppercase[s]
        for iy in range(rows):
            for ix in range(cols):
                sites.append((x0 + ix * spacing_x, iy * spacing_y))
                labels.append(lab)
    return ArrayGeometry(tuple(sites), tuple(labels), lattice_constant)


def distance_matrix(g: ArrayGeometry):
    """Full symmetric distance matrix in meters (zero diagonal)."""
    pos = g.positions()
    diff = pos[:, None, :] - pos[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))

