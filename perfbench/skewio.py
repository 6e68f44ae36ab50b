"""The benchmark's own `skewset 1` writer and reader, and a brute-force
freeness oracle.

None of this imports skewlab: the inputs the program reads and the facts
the output checks compare against come from independent code.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PointFile:
    """A parsed skewset file: ambient plus coordinate arrays."""

    kind: str
    size: int
    xs: np.ndarray
    ys: np.ndarray

    @property
    def count(self) -> int:
        return int(self.xs.size)

    @property
    def lo(self) -> int:
        return 1 if self.kind == "grid" else 0

    def column_sizes(self) -> np.ndarray:
        return np.bincount(self.xs - self.lo, minlength=self.size)

    @property
    def trivial(self) -> int:
        """The d = 0 tuple count, sum over columns of |A_x|^2."""
        sizes = self.column_sizes().astype(np.int64)
        return int((sizes * sizes).sum())

    @property
    def density(self) -> float:
        return self.count / self.size**2


def write_skewset(path: str, kind: str, size: int, xs, ys) -> str:
    """Write a skewset file and return its sha256."""
    body = "\n".join(map("{} {}".format, np.asarray(xs).tolist(), np.asarray(ys).tolist()))
    text = f"skewset 1\nambient {kind} {size}\n" + (body + "\n" if body else "")
    data = text.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_skewset(path: str) -> PointFile:
    """Parse a skewset file; raises ValueError on any malformed content."""
    with open(path, "rb") as fh:
        head1 = fh.readline().split()
        head2 = fh.readline().split()
        body = fh.read()
    if head1 != [b"skewset", b"1"]:
        raise ValueError(f"{path}: missing 'skewset 1' header")
    if len(head2) != 3 or head2[0] != b"ambient" or head2[1] not in (b"grid", b"torus"):
        raise ValueError(f"{path}: bad ambient line")
    kind, size = head2[1].decode(), int(head2[2])
    vals = np.zeros((0, 2), dtype=np.int64)
    if body.strip():
        vals = np.loadtxt(io.BytesIO(body), dtype=np.int64, ndmin=2)
    if vals.shape[1] != 2:
        raise ValueError(f"{path}: point lines must hold two integers")
    pf = PointFile(kind, size, vals[:, 0].copy(), vals[:, 1].copy())
    lo, hi = pf.lo, pf.lo + size - 1
    if pf.count and (min(pf.xs.min(), pf.ys.min()) < lo or max(pf.xs.max(), pf.ys.max()) > hi):
        raise ValueError(f"{path}: coordinate outside {kind} {size}")
    if np.unique(pf.xs * (size + 1) + pf.ys).size != pf.count:
        raise ValueError(f"{path}: duplicate points")
    return pf


def has_skew_corner(points: set[tuple[int, int]], kind: str, size: int) -> bool:
    """Brute force over the definition: (x, y), (x, y+d), (x+d, y') with d != 0.

    Meant for search witnesses (tens of points); quadratic in the set size.
    """
    occupied = {x for x, _ in points}
    for x, y in points:
        for x2, y2 in points:
            if x2 != x or y2 == y:
                continue
            d = y2 - y
            if kind == "torus":
                if (x + d) % size in occupied:
                    return True
            elif x + d in occupied:
                return True
    return False


def oracle_free(pf: PointFile, bi: bool) -> bool:
    pts = set(zip(pf.xs.tolist(), pf.ys.tolist()))
    if has_skew_corner(pts, pf.kind, pf.size):
        return False
    return not (bi and has_skew_corner({(y, x) for x, y in pts}, pf.kind, pf.size))
