"""Exact extremal search: maximum skew-corner-free (and bi-skew) sets.

Branch and bound over columns, left to right, with column subsets encoded
as bitmasks.  The freeness predicate factors through per-column difference
sets: a column holding two points at vertical difference d forbids every
point in the column d to its right (and, on the torus, with wraparound).
Bi-skew mode adds the transposed constraint on rows.

Symmetry breaking uses the translation invariances: per-column vertical
shifts in skew mode (every nonempty column is normalized to contain its
base element) and global translations in bi-skew mode (the first nonempty
column is pinned, and on the torus contains the base element).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .construct import BaseSet
from .core import Ambient, GridSet, TORUS, make_grid_set, torus
from .errors import CapabilityError, ParameterError

MAX_AMBIENT = 64
DEFAULT_BUDGET = 10**8
SKEW = "skew"
BI_SKEW = "bi_skew"


@dataclass(frozen=True)
class SearchResult:
    ambient: Ambient
    mode: str
    best_size: int
    witness: GridSet
    optimal: bool
    nodes_explored: int
    budget_exhausted: bool


class _BudgetExhausted(Exception):
    pass


def _rotl(s: int, d: int, size: int) -> int:
    d %= size
    full = (1 << size) - 1
    return ((s << d) | (s >> (size - d))) & full


@lru_cache(maxsize=None)
def _torus_diffs(s: int, size: int) -> tuple[int, ...]:
    """Residues d in [1, size) realized as differences of two set bits."""
    return tuple(d for d in range(1, size) if s & _rotl(s, d, size))


@lru_cache(maxsize=None)
def _grid_diffs(s: int, size: int) -> tuple[int, ...]:
    """Positive integer differences realized by two set bits."""
    return tuple(d for d in range(1, size) if s & (s >> d))


@lru_cache(maxsize=None)
def _mask_bits(s: int) -> tuple[int, ...]:
    bits = []
    while s:
        low = s & -s
        bits.append(low.bit_length() - 1)
        s ^= low
    return tuple(bits)


def _ordered_masks(size: int, force_bit0: bool) -> list[int]:
    """Nonempty column subsets, largest first, deterministic order."""
    free_bits = range(1, size) if force_bit0 else range(size)
    base = 1 if force_bit0 else 0
    nfree = size - 1 if force_bit0 else size
    out = []
    for k in range(nfree, -1, -1):
        if k == 0 and not force_bit0:
            continue  # empty mask handled separately
        for combo in itertools.combinations(free_bits, k):
            m = base
            for b in combo:
                m |= 1 << b
            out.append(m)
    return out


@lru_cache(maxsize=8)
def _cached_masks(size: int, force_bit0: bool) -> tuple[int, ...]:
    return tuple(_ordered_masks(size, force_bit0))


def max_skew_corner_free(
    ambient: Ambient,
    budget: int = DEFAULT_BUDGET,
    mode: str = SKEW,
    symmetry: bool = True,
) -> SearchResult:
    """Maximum-size search; exact when the budget covers the full tree.

    `nodes_explored` counts candidate column subsets tried and is
    deterministic for a fixed configuration.
    """
    if mode not in (SKEW, BI_SKEW):
        raise ParameterError(f"unknown search mode {mode!r}")
    size = ambient.size
    if size > MAX_AMBIENT:
        raise CapabilityError(
            f"ambient size {size} exceeds the bitmask limit {MAX_AMBIENT}"
        )
    on_torus = ambient.kind == TORUS
    bi = mode == BI_SKEW
    # Per-column vertical shifts are symmetries only in plain skew mode; in
    # bi mode only global translations survive transposition.
    norm_all = symmetry and not bi
    norm_first = symmetry and (not bi or on_torus)
    if size <= 18:
        nonempty_all = _cached_masks(size, False)
        nonempty_norm = _cached_masks(size, True)
    else:
        nonempty_all = _ordered_masks(size, False)
        nonempty_norm = _ordered_masks(size, True)

    diffs = _torus_diffs if on_torus else _grid_diffs
    best = 0
    best_masks: Optional[list[int]] = None
    nodes = 0
    masks = [0] * size
    placed: list[tuple[int, int]] = []  # (position, mask) of nonempty columns

    def candidates(p: int) -> Iterable[int]:
        if p == 0 and symmetry:
            return nonempty_norm if norm_first else nonempty_all
        pool = nonempty_norm if norm_all else nonempty_all
        return itertools.chain(pool, (0,))

    def rec(p, occupied, forb_cols, row_occ, forb_rows, total) -> None:
        nonlocal best, best_masks, nodes
        if p == size:
            if total > best:
                best = total
                best_masks = masks.copy()
            return
        cap = size - forb_rows.bit_count() if bi else size
        room = total
        for q in range(p, size):
            if not forb_cols >> q & 1:
                room += cap
        if room <= best:
            return
        for s in candidates(p):
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            if s == 0:
                masks[p] = 0
                rec(p + 1, occupied, forb_cols, row_occ, forb_rows, total)
                continue
            if forb_cols >> p & 1:
                continue
            nf = forb_cols
            ok = True
            if on_torus:
                for d in diffs(s, size):
                    q = (p + d) % size
                    if occupied >> q & 1:
                        ok = False
                        break
                    nf |= 1 << q
            else:
                for d in diffs(s, size):
                    for q in (p + d, p - d):
                        if 0 <= q < size:
                            if occupied >> q & 1:
                                ok = False
                                break
                            nf |= 1 << q
                    if not ok:
                        break
            if not ok:
                continue
            nro, nfr = row_occ, forb_rows
            if bi:
                if s & forb_rows:
                    continue
                nro = row_occ | s
                for pp, mm in placed:
                    common = s & mm
                    if not common:
                        continue
                    d1 = p - pp
                    deltas = ((d1 % size), (-d1) % size) if on_torus else (d1, -d1)
                    for y in _mask_bits(common):
                        for dd in deltas:
                            if on_torus:
                                rr = (y + dd) % size
                            else:
                                rr = y + dd
                                if not 0 <= rr < size:
                                    continue
                            if nro >> rr & 1:
                                ok = False
                                break
                            nfr |= 1 << rr
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    continue
                if s & nfr:
                    continue
            masks[p] = s
            placed.append((p, s))
            rec(p + 1, occupied | (1 << p), nf, nro, nfr, total + s.bit_count())
            placed.pop()
            masks[p] = 0

    exhausted = False
    try:
        rec(0, 0, 0, 0, 0, 0)
    except _BudgetExhausted:
        exhausted = True

    lo = ambient.lo
    pts = [
        (p + lo, b + lo) for p, s in enumerate(best_masks or ()) for b in _mask_bits(s)
    ]
    witness = make_grid_set(pts, ambient)
    return SearchResult(
        ambient=ambient,
        mode=mode,
        best_size=best,
        witness=witness,
        optimal=not exhausted,
        nodes_explored=nodes,
        budget_exhausted=exhausted,
    )


def find_base_set(b: int, budget: int = DEFAULT_BUDGET) -> Optional[BaseSet]:
    """Search (Z/bZ)^2 for a skew-corner-free set larger than b.

    Returns a BaseSet whenever the search exhibits one (a witness proves
    existence even if the tree was not fully explored), otherwise None.
    """
    if b > MAX_AMBIENT:
        raise CapabilityError(f"base modulus {b} exceeds {MAX_AMBIENT}")
    if b < 1:
        raise ParameterError("base modulus must be >= 1")
    res = max_skew_corner_free(torus(b), budget=budget, mode=SKEW)
    if res.best_size > b:
        return BaseSet(b, res.witness)
    return None


@dataclass(frozen=True)
class STableRow:
    n: int
    size: int
    certified: bool


def s_table(n_max: int, budget: int = DEFAULT_BUDGET) -> list[STableRow]:
    """Certified maximum sizes for grids [1]^2 .. [n_max]^2.

    Rows where the budget ran out are flagged non-certified.
    """
    rows = []
    for n in range(1, n_max + 1):
        res = max_skew_corner_free(Ambient("grid", n), budget=budget)
        rows.append(STableRow(n=n, size=res.best_size, certified=res.optimal))
    return rows
