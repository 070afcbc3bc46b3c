"""Contract of the table engines' one input gather.

:class:`repro.engine.base.WordGather` marshals a run's primary-input
words into one ``uint64`` block for the fused, delta, trace and native
engines.  Its fast path (one look-up, one in-place ``concatenate``) must
be indistinguishable from the slow per-name loop written out below:
value forms x shapes x faults either give the same block or raise the
same exception type and message — from the helper itself and from every
engine built on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LPUConfig, compile_ffcl
from repro.engine import available_engines, create_engine
from repro.engine.base import WordGather
from repro.lpu import evaluate_graph
from repro.netlist import random_dag

_WORD = np.uint64
SMALL = LPUConfig(num_lpvs=4, lpes_per_lpv=8)
TABLE_ENGINES = [
    name for name in ("fused", "delta", "trace", "native")
    if name in available_engines()
]

SHAPES = ((), (1,), (3,), (2, 3), (1, 1), (0,), (2, 0))
FORMS = ("uint64", "int64", "list", "strided", "fortran")
FAULTS = (
    None, None, "extra", "missing", "ragged", "ragged_same_total",
    "same_size_other_shape", "scalar_among_arrays",
)


def reference(names, inputs):
    """The contract, one name at a time: ``(block, squeeze)``."""
    words = []
    shape = None
    for name in names:
        if name not in inputs:
            raise KeyError(f"missing value for primary input {name!r}")
        word = np.asarray(inputs[name], dtype=_WORD)
        if shape is None:
            shape = word.shape
        elif word.shape != shape:
            raise ValueError("all PI arrays must share one shape")
        words.append(word)
    if shape is None:  # no primary inputs: one word
        return np.empty((0, 1), dtype=_WORD), False
    if shape == ():  # scalar per PI: a one-word batch, squeezed after
        return np.stack(words).reshape(len(words), 1), True
    return np.stack(words), False


def _in_form(words, form):
    if form == "int64":
        return words.view(np.int64)  # same bits; negative when large
    if form == "list":
        return words.tolist()
    if form == "strided" and words.ndim:
        wide = np.zeros(words.shape[:-1] + (2 * words.shape[-1],), _WORD)
        wide[..., ::2] = words
        return wide[..., ::2]
    if form == "fortran":
        return np.asfortranarray(words)
    return words


@st.composite
def stimuli(draw, names):
    """``inputs`` for ``names``: a drawn shape, a drawn form per value,
    and at most one drawn fault."""
    shape = draw(st.sampled_from(SHAPES))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def words(of_shape):
        return rng.integers(0, 2**64, size=of_shape, dtype=_WORD)

    # half the draws hold arrays only: what the fast path accepts
    forms = FORMS if draw(st.booleans()) else [f for f in FORMS if f != "list"]
    inputs = {
        name: _in_form(words(shape), draw(st.sampled_from(forms)))
        for name in names
    }
    fault = draw(st.sampled_from(FAULTS))
    if fault == "extra":
        inputs["not_an_input"] = words(shape)
        inputs["nor_this"] = [1, 2, 3, 4, 5]
    if not names or fault in (None, "extra"):
        return inputs
    victim = draw(st.sampled_from(names))
    if fault == "missing":
        del inputs[victim]
    elif fault == "scalar_among_arrays":
        inputs[victim] = words(())
    elif shape:
        if fault == "ragged":
            inputs[victim] = words((shape[0] + 1,) + shape[1:])
        elif fault == "ragged_same_total" and len(names) > 1:
            # lengths that still sum to the block's
            other = draw(st.sampled_from([n for n in names if n != victim]))
            inputs[victim] = words((shape[0] + 1,) + shape[1:])
            inputs[other] = words((max(shape[0] - 1, 0),) + shape[1:])
        elif fault == "same_size_other_shape":
            inputs[victim] = words(shape[::-1] if len(shape) > 1
                                   else (1,) + shape)
    return inputs


def _outcome(call):
    """``("ok", value)`` or ``("raised", type, args)``."""
    try:
        return ("ok", call())
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        return ("raised", type(exc), exc.args)


# ----------------------------------------------------------------------
class TestWordGather:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), num_names=st.integers(0, 6), own_block=st.booleans())
    def test_property_same_block_or_same_error_as_reference(
        self, data, num_names, own_block
    ):
        names = [f"x{i}" for i in range(num_names)]
        inputs = data.draw(stimuli(names))
        expected = _outcome(lambda: reference(names, inputs))

        # a destination inside a bigger table, like a workspace's PI rows
        tables = []

        def pi_rows(shape):
            tables.append(np.zeros((num_names + 3,) + shape, dtype=_WORD))
            return tables[-1][2:2 + num_names]

        gather = WordGather(names)
        got = _outcome(
            lambda: gather.gather(inputs, pi_rows if own_block else None)
        )
        assert got[0] == expected[0], (got, expected)
        if expected[0] == "raised":
            assert got[1:] == expected[1:]
            return
        (block, squeeze), (ref_block, ref_squeeze) = got[1], expected[1]
        assert squeeze == ref_squeeze
        assert block.dtype == _WORD and block.shape == ref_block.shape
        assert np.array_equal(block, ref_block)
        if own_block:  # written in place, and nothing around it touched
            assert block.base is tables[-1]
            assert not tables[-1][:2].any() and not tables[-1][-1:].any()

    def test_fast_path_really_is_in_place_and_checked(self):
        """Equal total length is not equal shapes, and the destination
        the caller named is the block returned."""
        names = ["a", "b", "c"]
        gather = WordGather(names)
        dest = np.zeros((3, 4), dtype=_WORD)
        good = {n: np.full(4, i, dtype=_WORD) for i, n in enumerate(names)}
        block, squeeze = gather.gather(good, lambda shape: dest)
        assert block is dest and not squeeze
        assert dest.tolist() == [[0] * 4, [1] * 4, [2] * 4]
        ragged = dict(good, a=np.zeros(3, _WORD), b=np.zeros(5, _WORD))
        with pytest.raises(ValueError, match="share one shape"):
            gather.gather(ragged, lambda shape: np.zeros((3,) + shape, _WORD))

    def test_single_and_empty_name_sets(self):
        one = WordGather(["x"])
        block, squeeze = one.gather({"x": np.arange(3, dtype=_WORD)})
        assert block.tolist() == [[0, 1, 2]] and not squeeze
        with pytest.raises(KeyError, match="primary input 'x'"):
            one.gather({})
        block, squeeze = WordGather(()).gather({"spare": 1})
        assert block.shape == (0, 1) and not squeeze


# ----------------------------------------------------------------------
_CACHE = {}


def _engines():
    if not _CACHE:
        program = compile_ffcl(random_dag(5, 30, 3, seed=21), SMALL).program
        _CACHE["program"] = program
        _CACHE["engines"] = {
            name: create_engine(name, program) for name in TABLE_ENGINES
        }
    return _CACHE["program"], _CACHE["engines"]


class TestEveryTableEngine:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_property_engines_agree_with_reference(self, data):
        """Each engine either raises exactly what the reference loop
        raises or computes the oracle's outputs over the reference
        block, in the stimulus' own shape.  Engines persist across
        examples, so workspaces and the delta state see every shape
        change and every failed step in between."""
        program, engines = _engines()
        graph = program.graph
        names = [graph.input_name(nid) for nid in graph.inputs]
        inputs = data.draw(stimuli(names))
        expected = _outcome(lambda: reference(names, inputs))
        if expected[0] == "ok":
            block, squeeze = expected[1]
            shape = () if squeeze else block.shape[1:]
            oracle = evaluate_graph(graph, dict(zip(names, block)))
        for name, engine in engines.items():
            got = _outcome(lambda: engine.run(inputs))
            assert got[0] == expected[0], (name, got, expected)
            if expected[0] == "raised":
                assert got[1:] == expected[1:], name
                continue
            for po, words in oracle.items():
                out = got[1].outputs[po]
                assert out.shape == shape, (name, po)
                assert np.array_equal(out.reshape(-1), words.reshape(-1))

    def test_native_sharded_backend_reads_the_same_block(self):
        """Batches wide enough to shard go through a free-standing
        block instead of the workspace; same words either way."""
        program, engines = _engines()
        graph = program.graph
        rng = np.random.default_rng(8)
        inputs = {
            graph.input_name(nid): _in_form(
                rng.integers(0, 2**64, size=(4, 96), dtype=_WORD), form
            )
            for nid, form in zip(graph.inputs, FORMS)
        }
        native = create_engine(
            "native", program, backend="threaded", threads=2,
            min_shard_words=8,
        )
        try:
            got = native.run(inputs)
        finally:
            native.close()
        expected = engines["fused"].run(inputs)
        for po, words in expected.outputs.items():
            assert np.array_equal(got.outputs[po], words), po
