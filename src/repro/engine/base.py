"""The pluggable execution-engine interface.

Everything that can execute a compiled :class:`~repro.core.codegen.Program`
implements :class:`ExecutionEngine`: construct it from a program (doing any
one-time lowering there), then call :meth:`~ExecutionEngine.run` any number
of times.  Every run returns a fresh
:class:`~repro.lpu.simulator.SimulationResult` whose statistics cover that
run only — never cumulative state.

Engines register themselves by name in a module-level registry so callers
(the CLI, benchmarks, :class:`~repro.engine.session.Session`) select them
with a string:

* ``"cycle"`` — :class:`~repro.engine.cycle.CycleAccurateEngine`, the
  macro-cycle-accurate hardware model (ground truth),
* ``"trace"`` — :class:`~repro.engine.trace.TraceEngine`, the precompiled
  vectorized path,
* ``"fused"`` — :class:`~repro.engine.fused.FusedEngine`, the trace
  lowering renamed onto a compact register file and executed by a
  generated per-program kernel over preallocated workspaces (the serving
  default).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..core.codegen import Program
from ..lpu.simulator import SimulationResult

__all__ = [
    "ExecutionEngine",
    "SAMPLES_PER_WORD",
    "SimulationResult",
    "WordGather",
    "available_engines",
    "create_engine",
    "engine_uses_trace",
    "register_engine",
]

#: Independent Boolean samples carried by one operand word: engines pack
#: operands into numpy ``uint64`` lanes, so every stimulus word is 64
#: parallel samples regardless of the modeled 2m-bit operand width.
SAMPLES_PER_WORD = 64


class ExecutionEngine(ABC):
    """Executes a compiled program; one instance serves many runs."""

    #: Registry name; subclasses override (and register themselves).
    name: str = "abstract"
    #: True for engines built on the trace lowering — caching layers
    #: pre-lower (and artifact packagers embed tables) for these without
    #: naming individual engines.
    uses_trace: bool = False

    def __init__(self, program: Program) -> None:
        self.program = program

    @abstractmethod
    def run(self, inputs: Dict[str, np.ndarray]) -> SimulationResult:
        """Execute one inference pass over ``inputs``.

        ``inputs`` maps every primary-input name to a ``uint64`` array; all
        arrays must share one shape (any shape — every element is a packed
        64-sample word).  Returns the outputs plus this run's statistics.
        """

    @property
    def config(self):
        return self.program.config

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(program={self.program.graph.name!r})"


_WORD = np.uint64
_SIZE = attrgetter("size")


class WordGather:
    """The table engines' one input-marshalling path: the primary-input
    words of a run, in ``names`` order, as one ``(len(names),) + shape``
    ``uint64`` block.

    :meth:`gather` writes the block in place — the caller's ``block_for``
    maps the batch shape to the destination (a workspace's pinned PI
    rows, a stream state's incoming words), so no intermediate copy
    exists.  Plain arrays of one length take the fast path: one C-level
    look-up and one ``np.concatenate(..., out=)`` into the block viewed
    flat.  Everything else — a missing name, lists and scalars, 0-d
    words, ragged shapes — takes :meth:`convert`, the per-name loop that
    defines the contract and raises its errors.
    """

    __slots__ = ("names", "_lookup")

    def __init__(self, names: Sequence[str]) -> None:
        self.names = tuple(names)
        # itemgetter needs a name, and returns a bare value for just one
        self._lookup = itemgetter(*self.names) if len(self.names) > 1 else (
            lambda inputs: tuple(inputs[name] for name in self.names)
        )

    def fresh_block(self, shape: Tuple[int, ...]) -> np.ndarray:
        """An uninitialised block for one batch of ``shape``."""
        return np.empty((len(self.names),) + shape, dtype=_WORD)

    def convert(
        self, inputs: Dict[str, np.ndarray]
    ) -> Tuple[List[np.ndarray], Tuple[int, ...], bool]:
        """Every word converted to ``uint64`` and checked by name:
        ``(words, shape, squeeze)``.  0-d (scalar-per-PI) stimulus is
        promoted to a one-word batch — row views of a 1-D value table
        would be numpy scalars, which ufunc ``out=`` rejects — and
        ``squeeze`` tells the caller to return 0-d outputs; an empty PI
        set runs as one word."""
        words: List[np.ndarray] = []
        shape: Optional[Tuple[int, ...]] = None
        for name in self.names:
            try:
                word = inputs[name]
            except KeyError:
                raise KeyError(
                    f"missing value for primary input {name!r}"
                ) from None
            word = np.asarray(word, dtype=_WORD)
            if shape is None:
                shape = word.shape
            elif word.shape != shape:
                raise ValueError("all PI arrays must share one shape")
            words.append(word)
        if shape is None:
            return words, (1,), False
        if shape == ():
            return [word.reshape(1) for word in words], (1,), True
        return words, shape, False

    def gather(
        self,
        inputs: Dict[str, np.ndarray],
        block_for: Optional[
            Callable[[Tuple[int, ...]], np.ndarray]
        ] = None,
    ) -> Tuple[np.ndarray, bool]:
        """Fill ``block_for(shape)`` (default: a fresh block) with the
        input words; returns ``(block, squeeze)``."""
        block_for = block_for or self.fresh_block
        try:
            values = self._lookup(inputs)
            shape = values[0].shape
            # One pass tells arrays from everything else (no ``size``)
            # and, with concatenate's own check that trailing dimensions
            # agree, equal sizes are equal shapes: a ragged input whose
            # lengths merely sum to the block's cannot slip through.
            fast = len(shape) > 0 and len(set(map(_SIZE, values))) == 1
        except (KeyError, IndexError, AttributeError):
            fast = False
        if fast:
            block = block_for(shape)
            try:
                np.concatenate(
                    values,
                    out=block.reshape((-1,) + shape[1:]),
                    casting="unsafe",
                )
                return block, False
            except ValueError:
                pass  # mixed dimensions: convert() names the fault
        words, shape, squeeze = self.convert(inputs)
        block = block_for(shape)
        if words:
            block[...] = words
        return block, squeeze


def table_result(trace, outputs: Dict[str, np.ndarray], squeeze: bool = False):
    """One run's result for an engine built on the trace lowering: the
    statistics depend on the program alone and were computed while
    lowering.  ``squeeze`` undoes :class:`WordGather`'s 0-d promotion."""
    if squeeze:
        outputs = {name: word.reshape(()) for name, word in outputs.items()}
    return SimulationResult(
        outputs=outputs,
        macro_cycles=trace.macro_cycles,
        clock_cycles=trace.clock_cycles,
        compute_instructions_executed=trace.compute_instructions,
        switch_routes=trace.switch_routes,
        peak_buffer_words=trace.peak_buffer_words,
        buffer_writes=trace.buffer_writes,
    )


_REGISTRY: Dict[str, Type[ExecutionEngine]] = {}


def register_engine(cls: Type[ExecutionEngine]) -> Type[ExecutionEngine]:
    """Class decorator: make ``cls`` selectable by its ``name``."""
    if not cls.name or cls.name == "abstract":
        raise ValueError(f"{cls.__name__} needs a concrete 'name'")
    _REGISTRY[cls.name] = cls
    return cls


def available_engines() -> List[str]:
    """Registered engine names, sorted."""
    return sorted(_REGISTRY)


def create_engine(name: str, source, **options) -> ExecutionEngine:
    """Instantiate the engine registered under ``name``.

    ``source`` is a compiled :class:`Program` or an
    :class:`~repro.artifact.format.ExecutableArtifact`, whose embedded
    tables the engine finds through :mod:`repro.core.registry`, so
    booting from an artifact performs neither compilation nor lowering.

    ``options`` are engine-specific constructor keywords (e.g. the
    native engine's ``backend=``/``threads=``, the fused engine's
    ``rowwise_min_words=``); an option the selected engine does not
    accept raises ``TypeError``, like any keyword mismatch.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {available_engines()}"
        ) from None
    from ..artifact.format import ExecutableArtifact

    if isinstance(source, ExecutableArtifact):
        source = source.share_tables()
    return cls(source, **options)


def engine_uses_trace(name: str) -> bool:
    """True when the engine registered under ``name`` executes the trace
    lowering (so serving caches pre-lower and artifacts embed tables)."""
    cls = _REGISTRY.get(name)
    return bool(cls is not None and cls.uses_trace)
