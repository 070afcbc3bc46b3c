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

Every row set is a packed bitset in one Python int (bit i = minterm i): ON,
OFF, each cube's minterms, and per variable the rows where it reads 1
(``pos``) or 0 (``neg``).  Dropping literal v is one shift by 2^v and one OR;
the implicant test is one AND with OFF; irredundant finds every cube's
private minterms in one sweep of prefix/suffix ORs; reduce reads "all
minterms agree on v" as one AND with ``neg[v]`` / ``pos[v]``.  Each step is a
few word-parallel int operations over 2^k bits, not a numpy pass over 2^k
rows.  The numpy-mask implementation this replaced is the test oracle in
``tests/espresso_reference.py``: the covers must match cube for cube, in order.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .truth_table import Cube, TruthTable


def _bitset(bits: np.ndarray) -> int:
    """Row i of a boolean vector -> bit i of a Python int."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _suffix_or(rows: Sequence[int]) -> List[int]:
    """``out[i]`` = OR of ``rows[i:]`` (``out[len(rows)]`` = 0)."""
    out = [0] * (len(rows) + 1)
    for i in range(len(rows) - 1, -1, -1):
        out[i] = out[i + 1] | rows[i]
    return out


class _Context:
    """Bitsets of the table shared by all passes."""

    def __init__(self, table: TruthTable) -> None:
        self.num_vars = table.num_vars
        self.full = (1 << table.size) - 1
        self.on = _bitset(table.on_bits & table.care_bits)
        self.off = _bitset(~table.on_bits & table.care_bits)
        # Variable v reads 1 on 2^v rows after 2^v zero rows, every 2^(v+1).
        self.pos = [
            (((1 << (1 << v)) - 1) << (1 << v)) * (self.full // ((1 << (2 << v)) - 1))
            for v in range(self.num_vars)
        ]
        self.neg = [self.full ^ p for p in self.pos]

    def rows(self, cube: Cube) -> int:
        """The minterms of ``cube``."""
        rows = self.full
        for v in range(self.num_vars):
            if (cube.mask >> v) & 1:
                rows &= self.pos[v] if (cube.value >> v) & 1 else self.neg[v]
        return rows


def expand_cube(cube: Cube, ctx: _Context) -> Cube:
    """Drop literals (lowest variable first) while ``cube`` stays in ON ∪ DC."""
    mask, value, rows = cube.mask, cube.value, ctx.rows(cube)
    for var in range(ctx.num_vars):
        bit = 1 << var
        if mask & bit:
            # Add the rows on the other side of the literal.
            grown = rows | (rows >> bit if value & bit else rows << bit)
            if not grown & ctx.off:
                mask, value, rows = mask ^ bit, value & ~bit, grown
    return Cube(mask, value)


def _expand_all(cubes: List[Cube], ctx: _Context) -> List[Cube]:
    expanded: List[Cube] = []
    for cube in cubes:
        prime = expand_cube(cube, ctx)
        if not any(other.contains_cube(prime) for other in expanded):
            expanded = [c for c in expanded if not prime.contains_cube(c)]
            expanded.append(prime)
    return expanded


def _irredundant(cubes: List[Cube], ctx: _Context) -> List[Cube]:
    """Repeatedly drop the first cube (in cover order) with no privately
    covered ON-minterm, while more than one cube remains.

    Dropping a cube only grows the others' private sets, so one sweep does
    it: ``before`` is the OR of the cubes kept so far, ``after[i + 1]`` of
    those after ``i``.
    """
    rows = [ctx.rows(c) & ctx.on for c in cubes]
    after = _suffix_or(rows)
    keep: List[Cube] = []
    before = 0
    for i, cube in enumerate(cubes):
        if not rows[i] & ~(before | after[i + 1]) and len(keep) + len(cubes) - i > 1:
            continue
        keep.append(cube)
        before |= rows[i]
    return keep


def _reduce_all(cubes: List[Cube], ctx: _Context) -> List[Cube]:
    """Shrink each cube to the smallest cube containing the ON-minterms only
    it covers, keeping the cover complete.

    Cubes are processed *sequentially against the current cover* (not a
    snapshot): reducing against stale coverage would let two cubes each
    drop a minterm the other was covering, losing completeness.  ``before``
    is the OR of the cubes already reduced, ``after[i + 1]`` of those not yet.
    """
    rows = [ctx.rows(c) & ctx.on for c in cubes]
    after = _suffix_or(rows)
    reduced: List[Cube] = []
    before = 0
    for i, cube in enumerate(cubes):
        target = rows[i] & ~(before | after[i + 1]) or rows[i]
        if target:
            # Variables where all target minterms agree stay as literals.
            ones = sum(1 << v for v in range(ctx.num_vars) if not target & ctx.neg[v])
            zeros = sum(1 << v for v in range(ctx.num_vars) if not target & ctx.pos[v])
            cube = Cube(ones | zeros, ones)
        reduced.append(cube)
        before |= ctx.rows(cube) & ctx.on
    return reduced


def _cost(cubes: Sequence[Cube]) -> tuple:
    return (len(cubes), sum(c.num_literals() for c in cubes))


def espresso_minimize(table: TruthTable, max_iterations: int = 8) -> List[Cube]:
    """Heuristically minimize ``table`` into an irredundant prime SOP cover."""
    cubes = [Cube((1 << table.num_vars) - 1, m) for m in table.minterms()]
    if not cubes:
        return []
    ctx = _Context(table)
    if not ctx.off:
        # Tautology under the care set.
        return [Cube(0, 0)]
    cubes = _irredundant(_expand_all(cubes, ctx), ctx)
    best, best_cost = cubes, _cost(cubes)
    for _ in range(max_iterations):
        cubes = _irredundant(_expand_all(_reduce_all(cubes, ctx), ctx), ctx)
        cost = _cost(cubes)
        if cost >= best_cost:
            break
        best, best_cost = cubes, cost
    if ctx.on & ~_suffix_or([ctx.rows(c) for c in best])[0]:
        raise RuntimeError("espresso produced an incomplete cover")
    return best
