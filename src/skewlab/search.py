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

Most candidates fail at once: their differences reach back to an occupied
column, or their column is blocked.  Whether a candidate at column p
reaches an occupied column depends only on its reflected difference set
and on the occupied columns shifted by size-1-p, so the search keeps, per
such mask, the list of surviving pool positions and counts the rejected
candidates between them by arithmetic.  The lists are found lazily, never
further than the remaining budget reaches.  There is one pool per
normalization, every candidate mask in a fixed order, and each survivor
list streams it afresh from `_masks`: no pool is ever listed, since at
size 64 it would not fit in memory.

The search holds no arrays: it imports only `ambient` and `errors`, and a
result keeps its witness as sorted (x, y) points, so a CLI search loads no
numpy.  `SearchResult.witness` builds the GridSet of `core` on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, repeat
from typing import TYPE_CHECKING, Iterator, Optional

from .ambient import TORUS, Ambient, torus
from .errors import CapabilityError, ParameterError

if TYPE_CHECKING:
    from .construct import BaseSet
    from .core import GridSet

MAX_AMBIENT = 64
DEFAULT_BUDGET = 10**8
SKEW = "skew"
BI_SKEW = "bi_skew"
# Survivor lists are kept for the whole search, until they hold this many
# entries in all; then they are dropped and rebuilt as nodes need them.
_CACHE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SearchResult:
    ambient: Ambient
    mode: str
    best_size: int
    points: tuple[tuple[int, int], ...]  # the witness, sorted
    optimal: bool
    nodes_explored: int
    budget_exhausted: bool

    @cached_property
    def witness(self) -> GridSet:
        """The witness as a GridSet, built on first use."""
        from .core import make_grid_set

        return make_grid_set(self.points, self.ambient)


class _BudgetExhausted(Exception):
    pass


class _Survivors:
    """The candidates of one pool whose reflected difference set R misses
    `hit`, found lazily in pool order: `found` holds (position, mask, D, R)
    for each survivor among the first `scanned` positions of the pool, and
    `stream` yields the rest."""

    __slots__ = ("found", "scanned", "stream", "hit")

    def __init__(self, stream: Iterator[int], hit: int) -> None:
        self.found: list[tuple[int, int, int, int]] = []
        self.scanned = 0
        self.stream = stream
        self.hit = hit


def _masks(size: int, force_bit0: bool) -> Iterator[int]:
    """Candidate column subsets, largest first, in a fixed order.

    With `force_bit0` every mask holds bit 0, down to the mask 1 itself;
    without it the empty mask is left out, since the search tries it last.
    """
    base = int(force_bit0)
    bits = [1 << b for b in range(base, size)]
    return chain.from_iterable(
        map(sum, combinations(bits, k), repeat(base))
        for k in range(len(bits), -base, -1)
    )


def _shift(m: int, d: int, size: int, on_torus: bool) -> int:
    """Move the bits of m up by d: rotated on the torus, clipped on the grid."""
    full = (1 << size) - 1
    if on_torus:
        d %= size
        return ((m << d) | (m >> (size - d))) & full
    return (m << d) & full if d >= 0 else m >> -d


@lru_cache(maxsize=1 << 16)
def _diffs(s: int, size: int, on_torus: bool) -> tuple[int, int]:
    """(D, R): bit d of D is set when two bits of s differ by d > 0 (mod
    size on the torus); R is D reflected, bit size-1-d for each such d.

    A column p holding s forbids ((D << p) | (R >> (size-1-p))) & full,
    the columns p + d and p - d; on the torus D is symmetric and R = D >> 1,
    so the same expression wraps.
    """
    dm = 0
    for b in range(size):
        if s >> b & 1:
            dm |= _shift(s, -b, size, on_torus)
    dm &= ~1
    return dm, int(format(dm, f"0{size}b")[::-1], 2)


def max_skew_corner_free(
    ambient: Ambient,
    budget: int = DEFAULT_BUDGET,
    mode: str = SKEW,
    symmetry: bool = True,
) -> SearchResult:
    """Maximum-size search; exact when the budget covers the full tree.
    When the budget runs out first, the result is the largest free set the
    search placed, whether or not it completed a branch.

    `nodes_explored` counts candidate column subsets tried, rejected ones
    included, and is deterministic for a fixed configuration.
    """
    if mode not in (SKEW, BI_SKEW):
        raise ParameterError(f"unknown search mode {mode!r}")
    if budget < 1:
        raise ParameterError(f"search budget must be >= 1, got {budget}")
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
    full = (1 << size) - 1
    best = reached = 0  # reached: the largest free placement, leaf or not
    best_masks: Optional[list[int]] = None
    reached_masks: Optional[list[int]] = None
    nodes = 0
    masks = [0] * size
    placed: list[tuple[int, int]] = []  # (position, mask) of nonempty columns

    # the pool streamed by `_masks`: every nonempty mask, or every mask
    # holding bit 0
    pool_len = {False: (1 << size) - 1, True: 1 << size - 1}
    # survivor lists by the mask they must miss; -1 keys the first column
    cache: dict[int, _Survivors] = {}
    stored = 0

    def extend(sv: _Survivors, stop: int) -> None:
        """Scan the pool up to position `stop` or the next survivor."""
        nonlocal stored
        hit = sv.hit
        for j, s in zip(range(sv.scanned, stop), sv.stream):
            dm, rm = _diffs(s, size, on_torus)
            if not rm & hit:
                sv.found.append((j, s, dm, rm))
                sv.scanned = j + 1
                stored += 1
                if stored > _CACHE_ENTRIES:
                    # lists in use on the current path live on unshared
                    cache.clear()
                    stored = 0
                return
        sv.scanned = stop

    def rec(p, occupied, forb_cols, row_occ, forb_rows, total) -> None:
        """Try the candidates of column p.  The caller has checked the
        bound: total plus cap times the free columns from p on beats best,
        where cap is the number of rows not forbidden (bi-skew) or size."""
        nonlocal best, best_masks, reached, reached_masks, nodes
        if p == size:
            best, best_masks = total, masks.copy()
            return
        first = p == 0 and symmetry
        flag = norm_first if first else norm_all
        npool = pool_len[flag]
        back = size - 1 - p  # also the number of columns after p
        # The candidate at pool position j is node base + j + 1.  Only the
        # survivors are visited; a blocked column has none.
        base = nodes
        if not forb_cols >> p & 1:
            # R forbids column p - d through its bit size-1-d
            hit = occupied << back
            key = -1 if first else hit
            sv = cache.get(key)
            if sv is None:
                sv = cache[key] = _Survivors(_masks(size, flag), hit)
            found = sv.found
            k = 0
            while True:
                if k == len(found):
                    stop = min(npool, budget - base)
                    if sv.scanned < stop:
                        extend(sv, stop)
                    if k == len(found):
                        break
                j, s, dm, rm = found[k]
                k += 1
                if j >= budget - base:
                    break
                nodes = base + j + 1
                nfc = forb_cols | ((dm << p) | (rm >> back)) & full
                nro, nfr = row_occ, forb_rows
                if bi:
                    # a row y shared with the earlier column pp forbids y +- (p - pp)
                    nro |= s
                    for pp, mm in placed:
                        common = s & mm
                        if common:
                            nfr |= _shift(common, p - pp, size, on_torus)
                            nfr |= _shift(common, pp - p, size, on_torus)
                    if nfr & nro:
                        continue
                t = total + s.bit_count()
                masks[p] = s
                if t > reached:
                    reached, reached_masks = t, masks.copy()
                cap = size - nfr.bit_count() if bi else size
                if t + cap * (back - (nfc >> p + 1).bit_count()) > best:
                    placed.append((p, s))
                    rec(p + 1, occupied | 1 << p, nfc, nro, nfr, t)
                    placed.pop()
                    base = nodes - j - 1
                masks[p] = 0
        if budget - base < npool:
            nodes = budget + 1
            raise _BudgetExhausted
        nodes = base + npool
        if not first:  # the empty column comes last
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            cap = size - forb_rows.bit_count() if bi else size
            if total + cap * (back - (forb_cols >> p + 1).bit_count()) > best:
                rec(p + 1, occupied, forb_cols, row_occ, forb_rows, total)

    exhausted = False
    try:
        rec(0, 0, 0, 0, 0, 0)
    except _BudgetExhausted:
        exhausted = True
    if reached > best:  # only when the budget ran out first
        best, best_masks = reached, reached_masks

    lo = ambient.lo
    points = tuple(
        (p + lo, b + lo)
        for p, s in enumerate(best_masks or ())
        for b in range(size)
        if s >> b & 1
    )
    return SearchResult(
        ambient=ambient,
        mode=mode,
        best_size=best,
        points=points,
        optimal=not exhausted,
        nodes_explored=nodes,
        budget_exhausted=exhausted,
    )


def find_base_set(b: int) -> Optional[BaseSet]:
    """Search (Z/bZ)^2 for a skew-corner-free set larger than b.

    Returns a BaseSet whenever the search exhibits one (a witness proves
    existence even if the tree was not fully explored), otherwise None.
    `torus(b)` refuses b < 1 and the search b > MAX_AMBIENT.
    """
    res = max_skew_corner_free(torus(b), mode=SKEW)
    if res.best_size > b:
        from .construct import BaseSet

        return BaseSet(b, res.witness)
    return None
