"""Dense GF(p) linear algebra on numpy arrays, sized for desk-scale cohomology.

Matrices are kept in reduced row echelon form (RREF; each pivot column is
a unit vector, rows in the order their pivots were found) so that reducing
a block of incoming rows is a single int64 matmul over the pivots the
block uses, exact while (p - 1)^2 ncols < 2^63 (the bound a GFMatrix
checks when it is made).
"""

from __future__ import annotations

import numpy as np

from .errors import TooLarge


class GFMatrix:
    """Incrementally built RREF over GF(p) with a fixed number of columns."""

    def __init__(self, ncols: int, p: int):
        if (p - 1) ** 2 * max(ncols, 1) >= 2 ** 63:
            raise TooLarge(f"GF({p}) elimination on {ncols} columns would overflow int64")
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, block: np.ndarray) -> np.ndarray:
        """Return block reduced modulo the current row space (RREF trick)."""
        block = np.asarray(block, dtype=np.int64) % self.p
        if not self.pivots or not block.size:
            return block
        coeff = block[:, self.pivots]
        # numpy's integer matmul has no BLAS, so only the pivots the block
        # uses enter it: a block of sparse rows (cocycle equations) uses few
        used = np.flatnonzero(coeff.any(axis=0))
        if not used.size:
            return block
        red = block - coeff[:, used] @ self.rows[used]
        return red % self.p

    def add_rows(self, block: np.ndarray) -> int:
        """Reduce a block against the RREF and absorb any new pivot rows.

        The block is taken a few rows at a time, so that each piece is
        reduced against every pivot found before it by one matmul, and the
        elimination inside a piece loops over its new pivots, not its rows.
        Returns the number of pivots added.
        """
        block = np.asarray(block, dtype=np.int64)
        step = max(16, self.ncols // 8)
        return sum(self._absorb(self.reduce(block[r0:r0 + step]))
                   for r0 in range(0, len(block), step))

    def _absorb(self, red: np.ndarray) -> int:
        """Add the row space of `red`, already reduced against the RREF."""
        p = self.p
        red = red[red.any(axis=1)]
        new_rows: list[np.ndarray] = []
        new_piv: list[int] = []
        while len(red):
            j = int(np.flatnonzero(red[0])[0])
            v = red[0] * pow(int(red[0, j]), p - 2, p) % p
            red = (red[1:] - np.outer(red[1:, j], v)) % p
            red = red[red.any(axis=1)]
            new_rows.append(v)
            new_piv.append(j)
        if not new_rows:
            return 0
        npmat = np.stack(new_rows)
        # each new row is zero at the pivots found before it; clear the later ones
        for i in reversed(range(1, len(new_piv))):
            npmat[:i] = (npmat[:i] - np.outer(npmat[:i, new_piv[i]], npmat[i])) % p
        if self.pivots:
            coeff = self.rows[:, new_piv]
            if coeff.any():
                self.rows = (self.rows - coeff @ npmat) % p
        self.rows = np.vstack([self.rows, npmat])
        self.pivots.extend(new_piv)
        return len(new_piv)

    def nullspace(self) -> np.ndarray:
        """Basis of {v : R v = 0} for the row space R, one vector per row."""
        is_pivot = np.zeros(self.ncols, dtype=bool)  # np.setdiff1d would import numpy.ma
        is_pivot[self.pivots] = True
        free = np.flatnonzero(~is_pivot)
        basis = np.zeros((len(free), self.ncols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, self.pivots] = (-self.rows[:, free].T) % self.p
        return basis
