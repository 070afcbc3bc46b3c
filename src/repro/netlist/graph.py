"""Boolean network (logic graph) data structure.

A :class:`LogicGraph` is a directed acyclic graph whose nodes are Boolean
operations and whose edges are data dependencies — the representation the
paper's compiler operates on ("creates a DAG to represent these gate
operations and their directional data dependencies", Section V).

Nodes are identified by dense integer ids.  Primary inputs are nodes with op
``input``; constants are ``const0``/``const1`` nodes; every other node is a
gate drawn from the LPE-supported cell library (:mod:`repro.netlist.cells`).
Primary outputs are named references to nodes.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from . import cells
from .cells import arity


@dataclass
class Node:
    """One vertex of the logic DAG."""

    op: str
    fanins: Tuple[int, ...] = ()
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in cells.ALL_OPS:
            raise ValueError(f"unknown op {self.op!r}")
        if len(self.fanins) != arity(self.op):
            raise ValueError(
                f"op {self.op!r} needs {arity(self.op)} fanins, "
                f"got {len(self.fanins)}"
            )


class DeferredFields:
    """Instance attributes that are decoded on their first read.

    Mixed in *ahead of* the class whose fields it defers
    (``class DeferredLogicGraph(DeferredFields, LogicGraph)``), so that
    class itself — and every instance built the ordinary way — keeps
    plain attribute look-up.  :meth:`deferring` builds an instance that
    lacks some attributes and names the ``load`` that produces them.
    Python calls :meth:`__getattr__` only when ordinary look-up misses,
    so the first read of a deferred name runs ``load()`` — once, under a
    lock, however many threads read at the same moment — stores the
    ``{name: value}`` it returns as plain instance attributes and turns
    the instance into one of the plain class: every later read is an
    ordinary look-up.  A ``load`` that raises leaves the attributes
    deferred, so the next read raises again instead of seeing half-built
    state.

    Copying, pickling, ``==`` and ``dataclasses.replace`` materialise
    first and therefore behave as on an instance that never deferred.
    """

    @classmethod
    def deferring(
        cls,
        names: Iterable[str],
        load: Callable[[], Dict[str, object]],
        **attributes,
    ):
        """An instance that holds ``attributes`` (no ``__init__`` runs)
        and takes ``names`` from ``load()`` on their first read."""
        instance = cls.__new__(cls)
        instance.__dict__.update(
            attributes, _deferred=(frozenset(names), load, threading.Lock())
        )
        return instance

    def _materialize(self) -> None:
        deferred = self.__dict__.get("_deferred")
        if deferred is None:
            return
        _, load, lock = deferred
        with lock:
            if "_deferred" in self.__dict__:  # no other thread got here first
                self.__dict__.update(load())
                # DeferredX(DeferredFields, X) becomes an X — before the
                # marker goes, so whoever finds no marker finds an X.
                self.__class__ = type(self).__bases__[1]
                del self.__dict__["_deferred"]

    def __getattr__(self, name: str):
        attributes = self.__dict__
        deferred = attributes.get("_deferred")
        if deferred is not None and name in deferred[0]:
            self._materialize()
        try:
            # Also the answer when another thread finished the load
            # between the look-up that missed and this call.
            return attributes[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            ) from None

    # The plain class's own behaviour, once this is an instance of it: a
    # generated dataclass ``__eq__`` compares classes before fields, and
    # a reduce value names the class before it asks for the state.
    def __eq__(self, other):
        self._materialize()
        return self == other

    def __hash__(self):
        return super().__hash__()

    def __reduce_ex__(self, protocol):
        self._materialize()
        return self.__reduce_ex__(protocol)


class LogicGraph:
    """A combinational Boolean network with named PIs and POs.

    The graph enforces acyclicity by construction: a gate's fanins must
    already exist when the gate is added, so node ids are a valid topological
    order (sources first).  Transformation passes that rebuild graphs preserve
    this invariant.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self.nodes: Dict[int, Node] = {}
        self._next_id = 0
        self._inputs: Dict[int, str] = {}  # PI node id -> name, in order
        self._outputs: List[Tuple[str, int]] = []  # (PO name, node id)
        self._output_names: set = set()  # names in _outputs (see set_output)
        self._input_names: Dict[str, int] = {}  # the inverse of _inputs

    @classmethod
    def from_interface(
        cls,
        name: str,
        inputs: Iterable[Tuple[str, int]],
        outputs: Iterable[Tuple[str, int]],
        next_id: int,
        load_nodes: Callable[[], Dict[int, Node]],
    ) -> "LogicGraph":
        """A graph that holds its interface — name, ``(PI name, node id)``
        and ``(PO name, node id)`` pairs — and takes its node table from
        ``load_nodes()`` on the first read of :attr:`nodes`.  Exact node
        ids survive (they need not be dense), so ``next_id`` is given.
        ``load_nodes`` answers for the table agreeing with the interface
        (:meth:`check_structure`)."""
        input_names = dict(inputs)
        outputs = list(outputs)
        return DeferredLogicGraph.deferring(
            ("nodes",),
            lambda: {"nodes": load_nodes()},
            name=name,
            _next_id=next_id,
            _inputs={nid: pi for pi, nid in input_names.items()},
            _input_names=input_names,
            _outputs=outputs,
            _output_names={po for po, _ in outputs},
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _alloc(self, node: Node) -> int:
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = node
        return nid

    def add_input(self, name: Optional[str] = None) -> int:
        """Declare a primary input; returns its node id."""
        if name is None:
            name = f"pi{len(self._inputs)}"
        if name in self._input_names:
            raise ValueError(f"duplicate input name {name!r}")
        nid = self._alloc(Node(cells.INPUT, (), name))
        self._inputs[nid] = name
        self._input_names[name] = nid
        return nid

    def add_const(self, value: int) -> int:
        """Add a constant-0 or constant-1 source node."""
        op = cells.CONST1 if value else cells.CONST0
        return self._alloc(Node(op, ()))

    def add_gate(self, op: str, *fanins: int, name: Optional[str] = None) -> int:
        """Add a gate computing ``op`` over existing nodes; returns its id."""
        if op in cells.SOURCE_OPS:
            raise ValueError("use add_input/add_const for source nodes")
        for fid in fanins:
            if fid not in self.nodes:
                raise KeyError(f"fanin node {fid} does not exist")
        return self._alloc(Node(op, tuple(fanins), name))

    def set_output(self, name: str, nid: int) -> None:
        """Declare node ``nid`` as primary output ``name``."""
        if nid not in self.nodes:
            raise KeyError(f"node {nid} does not exist")
        if len(self._output_names) != len(self._outputs):
            # ``_outputs`` was assigned directly (codec, copy): resync.
            self._output_names = {existing for existing, _ in self._outputs}
        if name in self._output_names:
            raise ValueError(f"duplicate output name {name!r}")
        self._output_names.add(name)
        self._outputs.append((name, nid))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> List[int]:
        """PI node ids in declaration order."""
        return list(self._inputs)

    @property
    def outputs(self) -> List[Tuple[str, int]]:
        """(name, node id) pairs for the POs, in declaration order."""
        return list(self._outputs)

    @property
    def output_ids(self) -> List[int]:
        return [nid for _, nid in self._outputs]

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_gates(self) -> int:
        """Number of non-source nodes (gates, including BUF/NOT)."""
        return sum(1 for n in self.nodes.values() if n.op in cells.LPE_OPS)

    def input_name(self, nid: int) -> str:
        name = self._inputs.get(nid)
        if name is None:
            if nid not in self.nodes:
                raise KeyError(nid)
            raise ValueError(f"node {nid} is not a primary input")
        return name

    def input_id(self, name: str) -> int:
        return self._input_names[name]

    def op_of(self, nid: int) -> str:
        return self.nodes[nid].op

    def fanins_of(self, nid: int) -> Tuple[int, ...]:
        return self.nodes[nid].fanins

    def __contains__(self, nid: int) -> bool:
        return nid in self.nodes

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def fanouts(self) -> Dict[int, List[int]]:
        """Map node id -> list of node ids that consume it."""
        out: Dict[int, List[int]] = {nid: [] for nid in self.nodes}
        for nid, node in self.nodes.items():
            for fid in node.fanins:
                out[fid].append(nid)
        return out

    def topological_order(self) -> List[int]:
        """Node ids such that every fanin precedes its consumers.

        Because gates may only reference pre-existing nodes, ascending id
        order is already topological; we return it explicitly so passes do
        not have to rely on that construction detail.
        """
        return sorted(self.nodes)

    def levels(self) -> Dict[int, int]:
        """ASAP logic level per node: sources at 0, gate = 1 + max(fanins).

        This is the paper's levelization (Section III): gates at the same
        level have no connections between each other and can execute
        simultaneously.
        """
        return self._levels_of(self.topological_order())

    def _levels_of(self, order: Iterable[int]) -> Dict[int, int]:
        """ASAP levels of the nodes in ``order``: a topological order of a
        node set closed under fanin."""
        level: Dict[int, int] = {}
        for nid in order:
            node = self.nodes[nid]
            if node.op in cells.SOURCE_OPS:
                level[nid] = 0
            else:
                level[nid] = 1 + max(level[f] for f in node.fanins)
        return level

    def depth(self) -> int:
        """Maximum logic level over the POs (0 for a source-only graph).

        Levelizes only the POs' transitive fanin: dead logic cannot
        change the answer, and generated netlists can be mostly dead.
        """
        if not self._outputs:
            return 0
        level = self._levels_of(
            sorted(self.transitive_fanin(self.output_ids))
        )
        return max(level[nid] for _, nid in self._outputs)

    def level_widths(self) -> Dict[int, int]:
        """Number of gate nodes at each level (sources excluded)."""
        level = self.levels()
        widths: Dict[int, int] = {}
        for nid, node in self.nodes.items():
            if node.op in cells.LPE_OPS:
                widths[level[nid]] = widths.get(level[nid], 0) + 1
        return widths

    def transitive_fanin(self, roots: Iterable[int]) -> set:
        """All node ids reachable from ``roots`` through fanin edges
        (including the roots themselves)."""
        seen = set()
        stack = list(roots)
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self.nodes[nid].fanins)
        return seen

    def dangling_nodes(self) -> set:
        """Nodes not in the transitive fanin of any PO (dead logic)."""
        live = self.transitive_fanin(self.output_ids)
        return set(self.nodes) - live

    def validate(self) -> None:
        """Raise ValueError if any structural invariant is violated."""
        self.check_structure(self.nodes, self._inputs, self._outputs)

    @staticmethod
    def check_structure(
        nodes: Dict[int, Node],
        inputs: Iterable[int],
        outputs: Iterable[Tuple[str, int]],
    ) -> None:
        """:meth:`validate` over a node table and the PI ids and
        ``(PO name, node id)`` pairs of an interface, before a graph
        holds them."""
        for nid, node in nodes.items():
            for fid in node.fanins:
                if fid not in nodes:
                    raise ValueError(f"node {nid} references missing fanin {fid}")
                if fid >= nid:
                    raise ValueError(
                        f"node {nid} references fanin {fid} >= itself "
                        "(ids must be topologically ordered)"
                    )
        for name, nid in outputs:
            if nid not in nodes:
                raise ValueError(f"output {name!r} references missing node {nid}")
        for nid in inputs:
            if nid not in nodes or nodes[nid].op != cells.INPUT:
                raise ValueError(f"input list contains non-input node {nid}")

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, input_words: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Bit-parallel functional evaluation.

        ``input_words`` maps each PI name to a uint64 array; all arrays must
        share one shape.  Returns PO name -> uint64 array of the same shape.
        Each of the 64 bit lanes (times array elements) is an independent
        Boolean sample, matching the LPU's 2m-bit packed operands.
        """
        if not self._inputs:
            shape: Tuple[int, ...] = (1,)
        else:
            first = input_words[next(iter(self._input_names))]
            shape = np.asarray(first, dtype=np.uint64).shape
        values: Dict[int, np.ndarray] = {}
        for nid in self.topological_order():
            node = self.nodes[nid]
            if node.op == cells.INPUT:
                assert node.name is not None
                word = np.asarray(input_words[node.name], dtype=np.uint64)
                if word.shape != shape:
                    raise ValueError(
                        f"input {node.name!r} has shape {word.shape}, "
                        f"expected {shape}"
                    )
                values[nid] = word
            elif node.op == cells.CONST0:
                values[nid] = np.zeros(shape, dtype=np.uint64)
            elif node.op == cells.CONST1:
                values[nid] = np.full(shape, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
            else:
                operands = [values[f] for f in node.fanins]
                values[nid] = cells.eval_op(node.op, *operands)
        return {name: values[nid] for name, nid in self._outputs}

    def evaluate_bits(self, input_bits: Dict[str, int]) -> Dict[str, int]:
        """Scalar 0/1 evaluation (convenience wrapper for tests/tools)."""
        words = {
            name: np.array([0xFFFFFFFFFFFFFFFF if bit else 0], dtype=np.uint64)
            for name, bit in input_bits.items()
        }
        outs = self.evaluate(words)
        return {name: int(word[0] & np.uint64(1)) for name, word in outs.items()}

    # ------------------------------------------------------------------
    # Copying / rebuilding
    # ------------------------------------------------------------------
    def copy(self) -> "LogicGraph":
        """Deep structural copy."""
        g = LogicGraph(self.name)
        g.nodes = {nid: Node(n.op, n.fanins, n.name) for nid, n in self.nodes.items()}
        g._next_id = self._next_id
        g._inputs = dict(self._inputs)
        g._outputs = list(self._outputs)
        g._input_names = dict(self._input_names)
        return g

    def extract(self, mapping_name: Optional[str] = None) -> "LogicGraph":
        """Rebuild the graph keeping only logic reachable from the POs,
        compacting node ids.  All PIs are kept (even if dead) so
        transformation passes preserve the netlist interface."""
        g = LogicGraph(mapping_name or self.name)
        live = self.transitive_fanin(self.output_ids)
        remap: Dict[int, int] = {}
        for nid in self._inputs:
            node = self.nodes[nid]
            assert node.name is not None
            remap[nid] = g.add_input(node.name)
        for nid in self.topological_order():
            if nid not in live or nid in remap:
                continue
            node = self.nodes[nid]
            if node.op in (cells.CONST0, cells.CONST1):
                remap[nid] = g.add_const(1 if node.op == cells.CONST1 else 0)
            else:
                remap[nid] = g.add_gate(
                    node.op, *(remap[f] for f in node.fanins), name=node.name
                )
        for name, nid in self._outputs:
            g.set_output(name, remap[nid])
        return g

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> "GraphStats":
        level = self.levels()
        op_counts: Dict[str, int] = {}
        for node in self.nodes.values():
            op_counts[node.op] = op_counts.get(node.op, 0) + 1
        widths = self.level_widths()
        return GraphStats(
            name=self.name,
            num_inputs=self.num_inputs,
            num_outputs=self.num_outputs,
            num_gates=self.num_gates,
            depth=self.depth(),
            max_width=max(widths.values(), default=0),
            op_counts=op_counts,
        )

    def __repr__(self) -> str:
        return (
            f"LogicGraph({self.name!r}, pis={self.num_inputs}, "
            f"pos={self.num_outputs}, gates={self.num_gates}, "
            f"depth={self.depth()})"
        )


class DeferredLogicGraph(DeferredFields, LogicGraph):
    """A :class:`LogicGraph` that has not read its node table yet
    (:meth:`LogicGraph.from_interface`)."""


@dataclass
class GraphStats:
    """Summary statistics of a logic graph."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    depth: int
    max_width: int
    op_counts: Dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.num_inputs} PIs, {self.num_outputs} POs, "
            f"{self.num_gates} gates, depth {self.depth}, "
            f"max width {self.max_width}"
        )


def graphs_equivalent(
    a: LogicGraph,
    b: LogicGraph,
    num_trials: int = 16,
    rng: Optional[np.random.Generator] = None,
) -> bool:
    """Randomized equivalence check: same PI/PO names, same function on
    ``num_trials`` random 64-bit-packed input vectors (so 64*num_trials
    random samples).  Used heavily by tests to validate transformations."""
    names_a = sorted(a.input_name(i) for i in a.inputs)
    names_b = sorted(b.input_name(i) for i in b.inputs)
    if names_a != names_b:
        return False
    if sorted(n for n, _ in a.outputs) != sorted(n for n, _ in b.outputs):
        return False
    rng = rng or np.random.default_rng(0)
    for _ in range(num_trials):
        words = {
            name: rng.integers(0, 2**64, size=1, dtype=np.uint64)
            for name in names_a
        }
        out_a = a.evaluate(words)
        out_b = b.evaluate(words)
        for name in out_a:
            if int(out_a[name][0]) != int(out_b[name][0]):
                return False
    return True
