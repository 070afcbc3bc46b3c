"""Instruction set of the logic processor.

"The operations assigned to each LPE are configured with the aid of an
instruction set" (Section IV).  Each macro-cycle, every LPE of an LPV
executes one :class:`LPEInstruction`, which selects where its two operand
ports read from, whether the routed values are latched into the LPE's two
snapshot registers, which Boolean operation the logic unit performs, and
whether the produced output is valid (invalid outputs model the paper's
"instruction that invalidates output", Fig. 6).

Operand sources:

* ``switch`` — the non-blocking multicast switch network delivers the
  output of column ``index`` of the *previous* LPV (produced one
  macro-cycle earlier),
* ``snapshot`` — the LPE's own snapshot register for that port,
* ``input`` — a word of the input data buffer (only meaningful at LPV 0;
  ``index`` selects the slot within the current buffer entry),
* ``const`` — constant 0/1 (``index`` is the value).

Instructions encode to 32-bit words (:func:`encode_instruction`), giving the
"customized instructions" of the paper a concrete binary format that the
tests round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..netlist import cells

#: LPE opcode for "no computation" (output is invalidated).
NOP = "nop"

_OPCODES = {
    NOP: 0,
    cells.BUF: 1,
    cells.NOT: 2,
    cells.AND: 3,
    cells.OR: 4,
    cells.XOR: 5,
    cells.XNOR: 6,
    cells.NAND: 7,
    cells.NOR: 8,
}
_OPCODE_NAMES = {v: k for k, v in _OPCODES.items()}

SRC_SWITCH = "switch"
SRC_SNAPSHOT = "snapshot"
SRC_INPUT = "input"
SRC_CONST = "const"

_SRC_CODES = {SRC_SWITCH: 0, SRC_SNAPSHOT: 1, SRC_INPUT: 2, SRC_CONST: 3}
_SRC_NAMES = {v: k for k, v in _SRC_CODES.items()}

#: Maximum encodable port index (switch column / buffer slot).
MAX_PORT_INDEX = 255


@dataclass(frozen=True)
class PortSpec:
    """Operand-port configuration of one LPE input."""

    source: str
    index: int = 0
    latch: bool = False  # store the routed value into this port's snapshot

    def __post_init__(self) -> None:
        if self.source not in _SRC_CODES:
            raise ValueError(f"unknown port source {self.source!r}")
        if not 0 <= self.index <= MAX_PORT_INDEX:
            raise ValueError(f"port index {self.index} out of range")
        if self.source == SRC_CONST and self.index not in (0, 1):
            raise ValueError("const port index must be 0 or 1")


#: A port that reads nothing (constant 0, no latch) — used for unused ports.
IDLE_PORT = PortSpec(SRC_CONST, 0)


@dataclass(frozen=True)
class LPEInstruction:
    """One LPE's work for one macro-cycle."""

    op: str = NOP
    a: PortSpec = IDLE_PORT
    b: PortSpec = IDLE_PORT
    valid: bool = False  # does the logic unit drive a valid output?
    node: Optional[int] = None  # logic-graph node computed (trace only)

    def __post_init__(self) -> None:
        if self.op not in _OPCODES:
            raise ValueError(f"unknown LPE op {self.op!r}")
        if self.valid and self.op == NOP:
            raise ValueError("a NOP cannot produce a valid output")
        if not self.valid and self.op != NOP:
            raise ValueError(f"op {self.op!r} must produce a valid output")

    @property
    def is_pure_nop(self) -> bool:
        """True if the instruction neither computes nor latches."""
        return self.op == NOP and not self.a.latch and not self.b.latch


#: The canonical "do nothing, invalidate output" instruction.
NOP_INSTRUCTION = LPEInstruction()


def _encode_port(port: PortSpec) -> int:
    return (_SRC_CODES[port.source] << 9) | (int(port.latch) << 8) | port.index


def port_code(source: str, index: int = 0, latch: bool = False) -> int:
    """The 11-bit field of one port configuration, validated as a
    :class:`PortSpec` is."""
    return _encode_port(PortSpec(source, index, latch))


@lru_cache(maxsize=4096)  # <= 2^11 encodable ports; PortSpec is frozen
def _decode_port(bits: int) -> PortSpec:
    return PortSpec(
        source=_SRC_NAMES[(bits >> 9) & 0x3],
        index=bits & 0xFF,
        latch=bool((bits >> 8) & 0x1),
    )


def encode_instruction(instr: LPEInstruction) -> int:
    """Pack an instruction into a 32-bit word.

    Layout (LSB first): op[4] | valid[1] | a[11] | b[11] | reserved[5].
    """
    word = _OPCODES[instr.op]
    word |= int(instr.valid) << 4
    word |= _encode_port(instr.a) << 5
    word |= _encode_port(instr.b) << 16
    return word


@lru_cache(maxsize=65536)  # instructions are frozen: share per word
def decode_instruction(word: int) -> LPEInstruction:
    """Inverse of :func:`encode_instruction` (drops the trace node).

    Decoded instructions are memoized per word — artifact deserialization
    (:mod:`repro.artifact`) decodes whole instruction queues, where the
    same words (NOPs above all) recur thousands of times.
    """
    if not 0 <= word < (1 << 32):
        raise ValueError("instruction word out of range")
    op = _OPCODE_NAMES[word & 0xF]
    valid = bool((word >> 4) & 0x1)
    a = _decode_port((word >> 5) & 0x7FF)
    b = _decode_port((word >> 16) & 0x7FF)
    return LPEInstruction(op=op, a=a, b=b, valid=valid)


#: The word of :data:`NOP_INSTRUCTION` (both ports idle, no output).
NOP_WORD = encode_instruction(NOP_INSTRUCTION)


def word_fields(
    words: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(opcode, valid, a, b)`` of every word, ports as 11-bit fields —
    :func:`decode_instruction` on whole instruction columns."""
    words = np.asarray(words, dtype=np.int64)
    return (
        words & 0xF,
        (words >> 4) & 0x1,
        (words >> 5) & 0x7FF,
        (words >> 16) & 0x7FF,
    )


def port_fields(
    ports: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(source code, latch, index)`` of 11-bit port fields."""
    return (ports >> 9) & 0x3, (ports >> 8) & 0x1, ports & 0xFF


def malformed_words(words: np.ndarray, m: int) -> np.ndarray:
    """Mask of the words no ``m``-wide LPV can execute: every word
    :func:`decode_instruction` rejects, plus reserved bits, switch
    columns ``>= m`` and input-buffer slots ``>= 2m``."""
    words = np.asarray(words, dtype=np.int64)
    opcode, valid, a, b = word_fields(words)
    # Bits 27 and up are reserved (this also rejects negative words).
    bad = (words >> 27 != 0) | (opcode > max(_OPCODES.values()))
    bad |= valid != (opcode != _OPCODES[NOP])
    for port in (a, b):
        source, _, index = port_fields(port)
        bad |= (source == _SRC_CODES[SRC_SWITCH]) & (index >= m)
        bad |= (source == _SRC_CODES[SRC_INPUT]) & (index >= 2 * m)
        bad |= (source == _SRC_CODES[SRC_CONST]) & (index > 1)
    return bad
