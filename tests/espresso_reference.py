# Reference oracle: the numpy-mask Espresso that repro.synth.espresso
# replaced, kept verbatim.  tests/test_minimize.py checks that the packed-
# bitset version returns the identical cover, cube for cube and in order.
"""Heuristic two-level minimization (Espresso-style expand/irredundant/reduce).

For neuron fan-ins beyond Quine–McCluskey's reach, NullaNet-style flows use a
heuristic minimizer.  This is a faithful, compact re-implementation of the
Espresso loop operating on the explicit truth table (practical up to
:data:`repro.synth.truth_table.MAX_ENUM_VARS` inputs):

* **expand** each cube to a prime by greedily dropping literals while the
  cube stays inside ON ∪ DC,
* **irredundant** — remove cubes whose ON-minterms are covered by the rest,
* **reduce** each cube to the smallest cube covering its essential
  ON-minterms, enabling the next expand to escape local minima,
* iterate until the (cube count, literal count) cost stops improving.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.synth.truth_table import Cube, TruthTable


def _cube_rows(cube: Cube, idx: np.ndarray) -> np.ndarray:
    return (idx & cube.mask) == cube.value


class _Context:
    """Precomputed table views shared by all passes."""

    def __init__(self, table: TruthTable) -> None:
        self.table = table
        self.idx = np.arange(table.size, dtype=np.int64)
        self.on = table.on_bits & table.care_bits
        self.off = ~table.on_bits & table.care_bits

    def is_implicant(self, cube: Cube) -> bool:
        """Cube fully inside ON ∪ DC?"""
        return not bool(np.any(_cube_rows(cube, self.idx) & self.off))

    def on_rows(self, cube: Cube) -> np.ndarray:
        return _cube_rows(cube, self.idx) & self.on


def expand_cube(cube: Cube, ctx: _Context, order: Sequence[int]) -> Cube:
    """Greedily drop literals from ``cube`` (in ``order``) while it remains
    an implicant of ON ∪ DC; the result is a prime implicant."""
    current = cube
    for var in order:
        if not (current.mask >> var) & 1:
            continue
        candidate = current.without_literal(var)
        if ctx.is_implicant(candidate):
            current = candidate
    return current


def _expand_all(cubes: List[Cube], ctx: _Context) -> List[Cube]:
    expanded: List[Cube] = []
    for cube in cubes:
        # Try dropping rarely-useful literals first: order variables by how
        # unbalanced the OFF-set is along them (cheap proxy for Espresso's
        # blocking-matrix heuristics).
        order = sorted(range(ctx.table.num_vars), key=lambda v: -((cube.mask >> v) & 1))
        prime = expand_cube(cube, ctx, order)
        if not any(other.contains_cube(prime) for other in expanded):
            expanded = [c for c in expanded if not prime.contains_cube(c)]
            expanded.append(prime)
    return expanded


def _irredundant(cubes: List[Cube], ctx: _Context) -> List[Cube]:
    """Drop cubes whose ON coverage is already provided by the others.

    Processes the least useful cubes first (fewest privately covered
    minterms) so the survivors form a small irredundant cover.
    """
    if not cubes:
        return []
    rows = [ctx.on_rows(c) for c in cubes]
    keep = list(range(len(cubes)))

    def private_count(i: int) -> int:
        others = np.zeros_like(rows[0])
        for j in keep:
            if j != i:
                others |= rows[j]
        return int(np.count_nonzero(rows[i] & ~others))

    changed = True
    while changed:
        changed = False
        for i in sorted(keep, key=private_count):
            if private_count(i) == 0 and len(keep) > 1:
                keep.remove(i)
                changed = True
                break
    return [cubes[i] for i in keep]


def _reduce_all(cubes: List[Cube], ctx: _Context) -> List[Cube]:
    """Shrink each cube to the smallest cube containing the ON-minterms only
    it covers, keeping the cover complete.

    Cubes are processed *sequentially against the current cover* (not a
    snapshot): reducing against stale coverage would let two cubes each
    drop a minterm the other was covering, losing completeness.
    """
    rows = [ctx.on_rows(c) for c in cubes]
    reduced = list(cubes)
    for i in range(len(cubes)):
        others = np.zeros_like(ctx.on)
        for j, r in enumerate(rows):
            if j != i:
                others |= r
        essential = rows[i] & ~others
        target = rows[i] if not np.any(essential) else essential
        minterms = ctx.idx[target]
        if minterms.size == 0:
            continue
        # Smallest enclosing cube: variables where all minterms agree stay
        # as literals; the rest become don't-cares within the cube.
        agree_one = np.bitwise_and.reduce(minterms)
        agree_zero = np.bitwise_and.reduce(~minterms) & ((1 << ctx.table.num_vars) - 1)
        mask = int(agree_one | agree_zero)
        value = int(agree_one)
        reduced[i] = Cube(mask, value)
        rows[i] = ctx.on_rows(reduced[i])
    return reduced


def _cost(cubes: Sequence[Cube]) -> tuple:
    return (len(cubes), sum(c.num_literals() for c in cubes))


def espresso_minimize(table: TruthTable, max_iterations: int = 8) -> List[Cube]:
    """Heuristically minimize ``table`` into an irredundant prime SOP cover."""
    full_mask = (1 << table.num_vars) - 1
    ctx = _Context(table)
    cubes: List[Cube] = [Cube(full_mask, m) for m in table.minterms()]
    if not cubes:
        return []
    if not np.any(ctx.off):
        # Tautology under the care set.
        return [Cube(0, 0)]

    cubes = _expand_all(cubes, ctx)
    cubes = _irredundant(cubes, ctx)
    best = cubes
    best_cost = _cost(cubes)
    for _ in range(max_iterations):
        cubes = _reduce_all(cubes, ctx)
        cubes = _expand_all(cubes, ctx)
        cubes = _irredundant(cubes, ctx)
        cost = _cost(cubes)
        if cost < best_cost:
            best, best_cost = cubes, cost
        else:
            break
    assert table.cover_is_complete(best), "espresso produced an incomplete cover"
    return best
