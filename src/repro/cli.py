"""Command-line interface: compile, inspect, simulate, serve, and report.

Usage (after ``pip install -e .``)::

    python -m repro.cli compile block.v --lpvs 16 --lpes 32 [--json]
    python -m repro.cli compile block.v --pipeline no-merge --explain-passes
    python -m repro.cli compile block.v -o block.lpa [--probe-words 4]
    python -m repro.cli compile s1.v s2.v s3.v --bundle -o model.lpa
    python -m repro.cli inspect block.lpa [--json] [--verify]
    python -m repro.cli inspect model.lpa --verify  (chain replay)
    python -m repro.cli serve block.v --workers 4 --port 8080
    python -m repro.cli serve --artifact block.lpa --store-url http://a:8080/v1/store
    python -m repro.cli simulate block.v --seed 7 --engine trace
    python -m repro.cli simulate --artifact block.lpa --engine trace
    python -m repro.cli calibrate block.v --max-words 256 [--json]
    python -m repro.cli report block.v --no-merge --policy sequential [--json]
    python -m repro.cli passes block.v [--json] / passes --list
    python -m repro.cli store list /var/cache/repro-store [--json]
    python -m repro.cli store prune /var/cache/repro-store --max-bytes 256M

``compile`` prints the compilation metrics (MFG counts, schedule length,
FPS); ``--pipeline`` selects a named compile pipeline (``paper``,
``no-merge``, ``metrics-only``) or a custom comma-separated pass list, and
``--explain-passes`` appends the per-pass wall-time/size report.
``-o/--output`` additionally writes the compiled executable as an
ahead-of-time ``.lpa`` artifact (:mod:`repro.artifact`) with embedded
probe vectors (``--probe-words``, default 2); ``compile --embed-fanout``
also packages the delta engine's fanout/cone tables so streaming
deployments boot with zero cone analysis.  ``inspect`` prints an
artifact's metadata (``--verify`` replays the embedded probes through a
fresh engine, falling back to a functional cross-check when none are
packaged), and ``simulate``/``calibrate`` accept ``--artifact`` in place
of a netlist to run a previously compiled executable with zero
compilation.
``compile --bundle`` compiles several netlists as the stages of one
format-v2 multi-program bundle (stage PIs wired from the previous
stage's same-named POs); ``serve --artifact`` executes a bundle as a
software pipeline — one engine per stage, bounded inter-stage queues
(``--pipeline-depth``) — and ``inspect --verify`` replays its embedded
probes through the whole chain.
``serve`` boots a network-addressable fabric node
(:mod:`repro.serve.fabric`): an asyncio HTTP front-end with admission
control over the batched serving stack, plus a ``/v1/store`` artifact
endpoint so further nodes warm-boot from it with zero compile passes
(``--store-url`` points a cold node at a warm one).
``passes`` prints that per-pass report on its own (``--list`` enumerates
the registered passes and named pipelines without compiling anything).
``simulate`` additionally executes the program on the selected
execution engine (``--engine cycle`` for the cycle-accurate hardware
model, ``--engine trace`` for the vectorized path, ``--engine fused``
for the register-renamed generated-kernel serving default, ``--engine
native`` for the multi-core/optional-numba/optional-CuPy backends over
the packed fused tables) with random stimulus and cross-checks it
against functional evaluation.  The engine-bearing commands accept the
native/fused tuning flags (``--native-backend``, ``--native-threads``,
``--native-min-shard-words``, ``--rowwise-min-words``); ``calibrate``
times the fused engine's two executable forms (the generated vector
kernel and the hazard-ordered rowwise stream) up to 2048 words on this
host and prints the ``--rowwise-min-words`` value to apply, and
``inspect --profile`` runs the kernel-level sampling profiler over an
artifact and reports the slowest levels.
``store`` lists and prunes the on-disk artifact store (LRU by mtime,
down to ``--max-bytes``).  ``report`` prints the per-stage breakdown.
``--json`` on ``compile``/``inspect``/``passes``/``calibrate``/``report``/
``store`` emits machine-readable output.  Throughput is measured by the
whole-stack benchmark, ``python3 bench/run.py`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from . import __version__
from .artifact import (
    ArtifactBundle,
    ArtifactStore,
    bundle_model,
    load_artifact,
    peek_header,
)
from .compiler import (
    PIPELINES,
    available_passes,
    format_pass_report,
    records_as_dicts,
)
from .core import LPUConfig, compile_ffcl
from .core.partition import partition_summary
from .core.schedule import schedule_summary
from .engine import Session, available_engines
from .engine.native import FALLBACK_CHAIN as NATIVE_BACKENDS
from .lpu import cross_check, random_stimulus
from .netlist import parse_bench, parse_verilog
from .serve import ServeConfig
from .serve.pool import BACKENDS, PLACEMENTS


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith(".bench"):
        return parse_bench(text)
    return parse_verilog(text)


def _add_common(
    parser: argparse.ArgumentParser,
    netlist_optional: bool = False,
    netlist_multi: bool = False,
) -> None:
    if netlist_multi:
        parser.add_argument(
            "netlist", nargs="+",
            help="structural Verilog (.v) or .bench file(s); several "
            "files require --bundle and become the stages of a "
            "multi-program bundle, in order",
        )
    elif netlist_optional:
        parser.add_argument(
            "netlist", nargs="?", default=None,
            help="structural Verilog (.v) or .bench file",
        )
    else:
        parser.add_argument(
            "netlist", help="structural Verilog (.v) or .bench file"
        )
    parser.set_defaults(artifact=None)
    parser.add_argument("--lpvs", type=int, default=16, help="LPV count (n)")
    parser.add_argument("--lpes", type=int, default=32, help="LPEs per LPV (m)")
    parser.add_argument(
        "--switch-stages", type=int, default=5, help="switch network stages"
    )
    parser.add_argument(
        "--frequency-mhz", type=float, default=333.0, help="clock frequency"
    )
    parser.add_argument(
        "--no-merge", action="store_true", help="disable MFG merging (Alg. 3)"
    )
    parser.add_argument(
        "--policy",
        choices=("pipelined", "sequential"),
        default="pipelined",
        help="MFG scheduling policy",
    )
    parser.add_argument(
        "--pipeline",
        default=None,
        metavar="SPEC",
        help="compile pipeline: a named pipeline "
        f"({', '.join(sorted(PIPELINES))}) or a comma-separated pass list; "
        "overrides --no-merge",
    )


def _add_engine(parser: argparse.ArgumentParser, default: str = "cycle") -> None:
    parser.add_argument(
        "--engine",
        choices=available_engines(),
        default=default,
        help="execution engine",
    )


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    """Per-engine tuning flags (native/fused kernel knobs)."""
    parser.add_argument(
        "--native-backend",
        choices=("auto",) + NATIVE_BACKENDS,
        default=None,
        help="native engine kernel backend (default auto: first "
        "available of cupy, numba, threaded, fused)",
    )
    parser.add_argument(
        "--native-threads", type=_positive_int, default=None,
        help="threaded native backend: worker threads "
        "(default: os.cpu_count())",
    )
    parser.add_argument(
        "--native-min-shard-words", type=_positive_int, default=None,
        help="threaded native backend: smallest per-thread word shard "
        "before falling back to single-threaded execution",
    )
    parser.add_argument(
        "--rowwise-min-words", type=_positive_int, default=None,
        help="fused/native/delta engines: batch word count at which the "
        "rowwise form (the hazard-ordered stream run one instruction "
        "at a time, three row touches per gate) takes over from the "
        "generated vector kernel; default 512 (measure with 'repro "
        "calibrate')",
    )


def _engine_options(args: argparse.Namespace, engine: str) -> Optional[dict]:
    """Collect the ``--native-*``/``--rowwise-min-words`` flags into the
    engine-constructor options dict for ``engine``.

    Returns ``None`` when no applicable flag is set.  Flags the selected
    engine does not understand exit with an error instead of being
    silently dropped.
    """
    native = {}
    if getattr(args, "native_backend", None) is not None:
        native["backend"] = args.native_backend
    if getattr(args, "native_threads", None) is not None:
        native["threads"] = args.native_threads
    if getattr(args, "native_min_shard_words", None) is not None:
        native["min_shard_words"] = args.native_min_shard_words
    rowwise = getattr(args, "rowwise_min_words", None)
    options: dict = {}
    if engine == "native":
        options.update(native)
        if rowwise is not None:
            options["rowwise_min_words"] = rowwise
    elif engine in ("fused", "delta"):
        if native:
            raise SystemExit(
                "error: --native-* options require --engine native"
            )
        if rowwise is not None:
            options["rowwise_min_words"] = rowwise
    elif native or rowwise is not None:
        raise SystemExit(
            "error: engine tuning options apply to the "
            f"native/fused/delta engines, not {engine!r}"
        )
    return options or None


def _config(args: argparse.Namespace) -> LPUConfig:
    return LPUConfig(
        num_lpvs=args.lpvs,
        lpes_per_lpv=args.lpes,
        switch_stages=args.switch_stages,
        frequency_hz=args.frequency_mhz * 1e6,
    )


def _compile(args: argparse.Namespace):
    graph = _load_graph(args.netlist)
    return compile_ffcl(
        graph,
        _config(args),
        merge=not args.no_merge,
        policy=args.policy,
        pipeline=getattr(args, "pipeline", None),
    )


def _add_artifact_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--artifact",
        metavar="FILE",
        default=None,
        help="run a previously compiled .lpa executable artifact instead "
        "of compiling a netlist (netlist and compile flags are ignored)",
    )


def _resolve_program(args: argparse.Namespace):
    """(program, compile result or None, artifact or None) of one command.

    With ``--artifact`` the executable is loaded as-is — no compilation,
    and (for artifacts embedding trace tables) no lowering.  Otherwise
    the netlist is compiled exactly as before.
    """
    if args.artifact is not None:
        artifact = load_artifact(args.artifact)
        if isinstance(artifact, ArtifactBundle):
            raise SystemExit(
                f"error: {args.artifact} is a multi-program bundle; "
                "this command needs a single-program artifact (serve "
                "and inspect accept bundles)"
            )
        return artifact.program, None, artifact
    if args.netlist is None:
        raise SystemExit(
            "error: either a netlist or --artifact FILE is required"
        )
    result = _compile(args)
    return result.program, result, None


def _compile_bundle(args: argparse.Namespace) -> int:
    """``compile --bundle``: every netlist compiles as one stage (through
    one shared pass cache) and the stages package into a format-v2
    multi-program ``.lpa`` with an identity-by-name dataflow manifest."""
    import os

    graphs = [_load_graph(path) for path in args.netlist]
    probe_words = args.probe_words if args.probe_words is not None else 2
    name = (
        os.path.splitext(os.path.basename(args.output))[0]
        if args.output
        else "model"
    )
    bundle = bundle_model(
        graphs,
        _config(args),
        name=name,
        probe_words=probe_words,
        fanout=args.embed_fanout,
        merge=not args.no_merge,
        policy=args.policy,
        pipeline=getattr(args, "pipeline", None),
    )
    info = {
        "name": bundle.name,
        "stages": [link.name for link in bundle.links],
        "external_inputs": list(bundle.external_inputs),
        "outputs": list(bundle.outputs),
        "bytes": len(bundle.to_bytes()),
        "fingerprint": bundle.fingerprint,
        "probe_words": probe_words,
    }
    if args.output:
        info["path"] = bundle.save(args.output)
    if args.json:
        print(json.dumps({"bundle": info}, indent=2, sort_keys=True))
        return 0
    print(
        f"bundle:    {bundle.name}: {bundle.num_stages} stages "
        f"({' -> '.join(info['stages'])})"
    )
    print(
        f"interface: {len(info['external_inputs'])} external PIs -> "
        f"{len(info['outputs'])} POs"
    )
    if args.output:
        print(
            f"wrote {info['path']} ({info['bytes']} bytes, "
            f"fingerprint {info['fingerprint'][:16]}...)"
        )
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    if args.bundle or len(args.netlist) > 1:
        if not args.bundle:
            raise SystemExit(
                "error: multiple netlists require --bundle (they become "
                "the stages of one multi-program artifact)"
            )
        return _compile_bundle(args)
    args.netlist = args.netlist[0]
    result = _compile(args)
    artifact_info = None
    if args.output:
        if not _require_program(result, args):
            return 2
        probe_words = (
            args.probe_words if args.probe_words is not None else 2
        )
        artifact = result.to_artifact(
            fanout=args.embed_fanout, probe_words=probe_words
        )
        path = artifact.save(args.output)
        artifact_info = {
            "path": path,
            "bytes": len(artifact.to_bytes()),
            "fingerprint": artifact.fingerprint,
            "workload_fingerprint": artifact.workload_fingerprint,
            "probe_words": probe_words,
        }
    if args.json:
        data = dict(result.metrics.as_dict())
        if args.explain_passes:
            data["passes"] = records_as_dicts(result.pass_records)
        if artifact_info is not None:
            data["artifact"] = artifact_info
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(result.metrics)
    for key, value in result.metrics.as_dict().items():
        print(f"  {key}: {value}")
    if args.explain_passes:
        print()
        print(format_pass_report(result.pass_records))
    if artifact_info is not None:
        print(
            f"wrote {artifact_info['path']} ({artifact_info['bytes']} "
            f"bytes, fingerprint {artifact_info['fingerprint'][:16]}...)"
        )
    return 0


def _verify_artifact(artifact, args: argparse.Namespace):
    """``inspect --verify``: probe replay, or functional cross-check
    when the artifact packages no probes.  Returns a JSON-able report
    with a ``"passed"`` verdict."""
    if artifact.probes is not None:
        report = artifact.verify_probes()
        report["method"] = "probe-replay"
        return report
    ok, _outputs, _ref = cross_check(artifact.program, seed=0)
    return {
        "method": "functional-cross-check",
        "passed": bool(ok),
        "engine": "cycle",
        "note": "artifact embeds no probe vectors; recompile with "
        "--probe-words to package replayable known-answer tests",
    }


def _profile_artifact(artifact, args: argparse.Namespace) -> dict:
    """``inspect --profile``: per-level kernel wall time on random
    stimulus through the sampling profiler of the selected engine."""
    session = artifact.session(engine=args.profile_engine)
    stimulus = random_stimulus(
        artifact.program.graph, array_size=args.profile_words, seed=0
    )
    session.run(stimulus)  # warm-up: generate/compile the kernels once
    records = session.engine.profile_levels(stimulus)
    return {
        "engine": args.profile_engine,
        "words": args.profile_words,
        "total_seconds": sum(r["seconds"] for r in records),
        "levels": records,
    }


def _inspect_unloadable(args: argparse.Namespace, error) -> int:
    """``inspect`` on a container no reader accepts: still print the
    header (magic-checked, nothing else), then the precise error."""
    try:
        with open(args.artifact, "rb") as handle:
            header = peek_header(handle.read())
    except Exception:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {"header": header, "error": str(error)},
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
        return 1
    print(f"artifact:  {args.artifact}")
    print(
        f"format:    v{header.get('format_version')} "
        f"(by {header.get('producer') or 'unknown producer'})"
    )
    if header.get("fingerprint"):
        print(f"content:   {header['fingerprint']}")
    print(f"error: {error}", file=sys.stderr)
    return 1


def _inspect_bundle(bundle, args: argparse.Namespace) -> int:
    """``inspect`` on a format-v2 multi-program bundle: the stage
    manifest, and with ``--verify`` an end-to-end chain replay of the
    embedded probes."""
    summary = bundle.summary()
    verification = None
    if args.verify:
        if bundle.probes is not None:
            verification = bundle.verify_probes()
            verification["method"] = "chain-probe-replay"
        else:
            verification = {
                "method": "none",
                "passed": False,
                "note": "bundle embeds no probe vectors; repackage with "
                "--probe-words to enable end-to-end verification",
            }
    if args.json:
        if verification is not None:
            summary = dict(summary)
            summary["verification"] = verification
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if verification is None or verification["passed"] else 1
    print(f"artifact:  {args.artifact}")
    print(
        f"format:    v{summary['format_version']} bundle "
        f"(by {summary['producer']})"
    )
    print(f"content:   {summary['fingerprint']}")
    print(
        f"model:     {summary['name']}: {len(summary['stages'])} stages, "
        f"{len(summary['external_inputs'])} external PIs -> "
        f"{len(summary['outputs'])} POs"
    )
    for i, stage in enumerate(summary["stages"]):
        graph = stage["graph"]
        print(
            f"stage {i}:   {stage['name']}: {graph['inputs']} PIs, "
            f"{graph['outputs']} POs, {graph['gates']} gates "
            f"({stage['program']['compute_instructions']} instructions)"
        )
        if stage["wired"]:
            wires = ", ".join(
                f"{pi}<-{po}" for pi, po in sorted(stage["wired"].items())
            )
            print(f"           wired: {wires}")
        if stage["external"] and i > 0:
            print(f"           external: {', '.join(stage['external'])}")
    probes = summary["probes"]
    if probes is None:
        print("probes:    not embedded (inspect --verify unavailable)")
    else:
        print(
            f"probes:    {probes['words']} words ({probes['samples']} "
            f"samples, seed {probes['seed']}) against the composed "
            f"reference"
        )
    if verification is not None:
        verdict = "PASSED" if verification["passed"] else "FAILED"
        if verification["method"] == "chain-probe-replay":
            print(
                f"verify:    {verdict} — replayed "
                f"{verification['probe_samples']} probe samples through "
                f"the {verification['stages']}-stage chain "
                f"({verification['engine']} engine, "
                f"{verification['outputs_checked']} outputs checked)"
            )
            if verification["mismatches"]:
                print(
                    "           mismatched outputs: "
                    + ", ".join(verification["mismatches"])
                )
        else:
            print(f"verify:    {verdict} — {verification['note']}")
        return 0 if verification["passed"] else 1
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from .artifact import ArtifactError

    try:
        artifact = load_artifact(args.artifact)
    except ArtifactError as exc:
        return _inspect_unloadable(args, exc)
    if isinstance(artifact, ArtifactBundle):
        return _inspect_bundle(artifact, args)
    summary = artifact.summary()
    verification = _verify_artifact(artifact, args) if args.verify else None
    profile = _profile_artifact(artifact, args) if args.profile else None
    if args.json:
        if verification is not None or profile is not None:
            summary = dict(summary)
        if verification is not None:
            summary["verification"] = verification
        if profile is not None:
            summary["level_profile"] = profile
        print(json.dumps(summary, indent=2, sort_keys=True))
        return (
            0 if verification is None or verification["passed"] else 1
        )
    graph = summary["graph"]
    schedule = summary["schedule"]
    program = summary["program"]
    print(f"artifact:  {args.artifact}")
    print(
        f"format:    v{summary['format_version']} "
        f"(by {summary['producer']})"
    )
    print(f"content:   {summary['fingerprint']}")
    print(f"workload:  {summary['workload_fingerprint']}")
    print(f"pipeline:  {summary['pipeline'] or '(unrecorded)'}")
    print(
        f"graph:     {graph['name']}: {graph['inputs']} PIs, "
        f"{graph['outputs']} POs, {graph['gates']} gates"
    )
    print(f"config:    {summary['config']}")
    print(
        f"schedule:  {schedule['makespan_macro_cycles']} macro-cycles "
        f"({schedule['total_clock_cycles']} clocks), queue depth "
        f"{schedule['queue_depth']}, {schedule['circulations']} "
        f"circulations, policy {schedule['policy']}"
    )
    print(
        f"program:   {program['compute_instructions']} compute "
        f"instructions in {program['queue_entries']} queue entries; "
        f"peak buffer {program['peak_buffer_words']} words"
    )
    trace = summary["trace"]
    if trace is None:
        print("trace:     not embedded (lowered on first trace-engine use)")
    else:
        print(
            f"trace:     {trace['levels']} levels, {trace['slots']} value "
            f"slots (embedded; trace engine boots with zero lowering)"
        )
    fused = summary["fused"]
    if fused is None:
        print("fused:     not embedded (renamed on first fused-engine use)")
    else:
        print(
            f"fused:     {fused['levels']} levels, {fused['registers']} "
            f"registers (embedded; fused engine boots with zero renaming)"
        )
    fanout = summary.get("fanout")
    if fanout is None:
        print(
            "fanout:    not embedded (delta engine derives the cone "
            "tables on first use)"
        )
    else:
        print(
            f"fanout:    {fanout['rows']} rows, "
            f"{fanout['consumer_edges']} consumer edges (embedded; delta "
            f"engine boots with zero cone analysis)"
        )
    probes = summary.get("probes")
    if probes is None:
        print("probes:    not embedded (inspect --verify falls back to "
              "a functional cross-check)")
    else:
        print(
            f"probes:    {probes['words']} words ({probes['samples']} "
            f"samples, seed {probes['seed']}) of known-answer vectors"
        )
    if profile is not None:
        slowest = sorted(
            profile["levels"], key=lambda r: r["seconds"], reverse=True
        )[:5]
        print(
            f"profile:   {len(profile['levels'])} levels in "
            f"{profile['total_seconds'] * 1e3:.3f} ms "
            f"({profile['engine']} engine, {profile['words']} words); "
            f"slowest:"
        )
        for record in slowest:
            print(
                f"           level {record['level']:>4} "
                f"({record['kernel']}): "
                f"{record['seconds'] * 1e6:>9.1f} us, "
                f"{record['instructions']} instructions"
            )
    if verification is not None:
        verdict = "PASSED" if verification["passed"] else "FAILED"
        if verification["method"] == "probe-replay":
            print(
                f"verify:    {verdict} — replayed "
                f"{verification['probe_samples']} probe samples through "
                f"the {verification['engine']} engine "
                f"({verification['outputs_checked']} outputs checked)"
            )
            if verification["mismatches"]:
                print(
                    "           mismatched outputs: "
                    + ", ".join(verification["mismatches"])
                )
        else:
            print(
                f"verify:    {verdict} — {verification['method']} "
                f"({verification['note']})"
            )
        return 0 if verification["passed"] else 1
    return 0


def cmd_passes(args: argparse.Namespace) -> int:
    if args.list:
        if args.json:
            print(
                json.dumps(
                    {
                        "passes": available_passes(),
                        "pipelines": {
                            name: list(pass_names)
                            for name, pass_names in PIPELINES.items()
                        },
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print("passes:")
        for name in available_passes():
            print(f"  {name}")
        print("pipelines:")
        for name, pass_names in sorted(PIPELINES.items()):
            print(f"  {name}: {','.join(pass_names)}")
        return 0
    if args.netlist is None:
        print("error: a netlist is required unless --list is given",
              file=sys.stderr)
        return 2
    result = _compile(args)
    if args.json:
        print(
            json.dumps(
                {
                    "netlist": args.netlist,
                    "metrics": result.metrics.as_dict(),
                    "passes": records_as_dicts(result.pass_records),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(result.metrics)
    print()
    print(format_pass_report(result.pass_records))
    return 0


def _require_program(result, args: argparse.Namespace) -> bool:
    """False (with a clear error) when the pipeline emitted no program."""
    if result.program is not None:
        return True
    print(
        f"error: pipeline {args.pipeline!r} generates no program (no "
        f"'codegen' pass); this command needs an executable program",
        file=sys.stderr,
    )
    return False


def cmd_simulate(args: argparse.Namespace) -> int:
    program, result, artifact = _resolve_program(args)
    if result is not None and not _require_program(result, args):
        return 2
    ok, outputs, _ref = cross_check(
        program, seed=args.seed, engine=args.engine,
        engine_options=_engine_options(args, args.engine),
    )
    if result is not None:
        print(result.metrics)
    else:
        print(
            f"artifact: {args.artifact} "
            f"(fingerprint {artifact.fingerprint[:16]}...)"
        )
    print(f"engine: {args.engine}")
    print(f"{args.engine} == functional: {ok}")
    for name in sorted(outputs):
        print(f"  {name}: {int(outputs[name][0]):#018x}")
    return 0 if ok else 1


def cmd_calibrate(args: argparse.Namespace) -> int:
    program, result, artifact = _resolve_program(args)
    if result is not None and not _require_program(result, args):
        return 2
    session = Session(
        artifact if artifact is not None else program,
        engine=args.engine,
        engine_options=_engine_options(args, args.engine),
    )
    sizes = [1]
    while sizes[-1] < args.max_words:
        sizes.append(min(sizes[-1] * 2, args.max_words))
    report = session.engine.calibrate_crossover(
        word_sizes=sizes, repeats=args.repeats, seed=args.seed
    )
    report["netlist"] = args.netlist
    report["artifact"] = args.artifact
    report["engine"] = args.engine
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"calibrate: {report['graph']} ({args.engine} engine, "
        f"best of {args.repeats})"
    )
    print(f"  {'words':>8} {'vector':>12} {'rowwise':>12}  winner")
    for point in report["points"]:
        winner = (
            "rowwise"
            if point["rowwise_seconds"] <= point["vector_seconds"]
            else "vector"
        )
        print(
            f"  {point['words']:>8} "
            f"{point['vector_seconds'] * 1e6:>10.1f}us "
            f"{point['rowwise_seconds'] * 1e6:>10.1f}us  {winner}"
        )
    measured = report["measured_crossover_words"]
    if measured is None:
        print(
            "  rowwise never won up to "
            f"{args.max_words} words; keep the vector kernel "
            f"(--rowwise-min-words > {args.max_words})"
        )
    else:
        print(
            f"  measured crossover: {measured} words "
            f"(engine currently {report['engine_rowwise_min_words']}, "
            f"built-in default {report['default_rowwise_min_words']}); "
            f"pass --rowwise-min-words {measured} to apply"
        )
    return 0


def _serving_source(args: argparse.Namespace):
    """(source, config) for ``serve``.

    Unlike :func:`_resolve_program` this does **not** compile a netlist
    here — the graph goes to the node's program cache, so a node wired
    to a warm store (``--store-url``) resolves the compiled artifact
    over the wire with zero local compile passes.
    """
    if args.artifact is not None:
        # The reader registry dispatches on format version: a v1
        # single-program artifact serves through the replica pool, a
        # v2 bundle serves the whole model through the stage pipeline.
        return load_artifact(args.artifact), None
    if args.netlist is None:
        raise SystemExit(
            "error: either a netlist or --artifact FILE is required"
        )
    return _load_graph(args.netlist), _config(args)


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    store = None
    if args.store is not None:
        store = ArtifactStore(args.store)
    elif args.store_url is not None:
        from .artifact import HTTPStoreBackend

        store = HTTPStoreBackend(args.store_url)
    compile_options = {}
    if args.artifact is None:
        compile_options = {
            "merge": not args.no_merge,
            "policy": args.policy,
            "pipeline": getattr(args, "pipeline", None),
        }
    return ServeConfig(
        engine=args.engine,
        engine_options=_engine_options(args, args.engine) or {},
        num_workers=args.workers,
        max_batch_size=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        default_deadline_ms=args.deadline_ms,
        placement=args.placement,
        backend=args.backend,
        share_tables=args.share_tables,
        pipeline_depth=args.pipeline_depth,
        store=store,
        compile_options=compile_options,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve.fabric import FabricConfig, FabricNode

    source, config = _serving_source(args)
    node = FabricNode(
        source,
        config,
        serving=_serve_config(args),
        fabric=FabricConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            client_rate=args.client_rate,
            client_burst=args.client_burst,
            serve_store=not args.no_store,
            verify_artifacts=args.verify_artifacts,
        ),
    )
    import signal
    import threading

    node.start()
    # Graceful shutdown on SIGTERM/SIGINT: flip to not-ready (load
    # balancers stop routing), finish every in-flight request, then
    # exit 0.  A second signal interrupts the drain the hard way.
    shutdown = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
        shutdown.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - odd platforms
            pass
    try:
        cache = node.stats()["server"]["cache"]
        boot = (
            "warm boot (artifact from store, zero compile passes)"
            if cache["disk_hits"] > 0
            else "cold boot (compiled locally)"
        )
        print(f"fabric node ready at {node.url}")
        print(
            f"  graph {node.server.graph.name}, engine "
            f"{node.server.engine_name}, {args.workers} "
            f"{args.backend} worker(s); {boot}"
        )
        if not args.no_store:
            print(f"  artifact store served at {node.store_url}")
        print("  SIGTERM/Ctrl-C to drain and stop")
        shutdown.wait()
        print("draining (finishing in-flight requests)")
        node.drain()
        print("stopped")
        return 0
    except KeyboardInterrupt:  # second Ctrl-C mid-drain
        print("stopping")
        return 0
    finally:
        node.stop()
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _parse_size(text: str) -> int:
    """Bytes from a human size spec: plain int, or K/M/G suffixed."""
    raw = text.strip().lower().rstrip("b")
    factor = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * factor)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"not a size: {text!r} (use e.g. 1048576, 512K, 64M, 2G)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("size must be >= 0")
    return value


def _format_size(size: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f}{unit}" if unit != "B" else f"{int(size)}B"
        size /= 1024
    return f"{size:.1f}GiB"  # pragma: no cover - loop always returns


def cmd_store(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.root)
    if args.store_command == "list":
        entries = store.entries()
        total = sum(entry.size for entry in entries)
        if args.json:
            print(
                json.dumps(
                    {
                        "root": args.root,
                        "entries": [e.as_dict() for e in entries],
                        "total_bytes": total,
                        "count": len(entries),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(f"store: {args.root} ({len(entries)} blobs, "
              f"{_format_size(total)})")
        for entry in entries:
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(entry.mtime)
            )
            print(
                f"  {stamp}  {_format_size(entry.size):>10}  "
                f"{entry.key[:24]}{entry.suffix}"
            )
        return 0
    # prune
    evicted = store.prune(max_bytes=args.max_bytes)
    remaining = store.total_bytes()
    if args.json:
        print(
            json.dumps(
                {
                    "root": args.root,
                    "max_bytes": args.max_bytes,
                    "evicted": [e.as_dict() for e in evicted],
                    "evicted_bytes": sum(e.size for e in evicted),
                    "remaining_bytes": remaining,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    freed = sum(e.size for e in evicted)
    print(
        f"pruned {len(evicted)} blobs ({_format_size(freed)}); "
        f"{_format_size(remaining)} remain under "
        f"{_format_size(args.max_bytes)}"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    result = _compile(args)
    if args.json:
        data = {
            "netlist": args.netlist,
            "preprocess": str(result.preprocess.report),
            "partition": partition_summary(result.partition),
            "schedule": schedule_summary(result.schedule),
            "metrics": result.metrics.as_dict(),
        }
        if result.program is not None:
            data["program"] = {
                "compute_instructions":
                    result.program.num_compute_instructions,
                "queue_entries": result.program.num_queue_entries,
                "peak_buffer_words": result.program.peak_buffer_words,
                "buffer_spills": result.program.buffer_spills,
            }
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(f"netlist:   {result.source}")
    print(f"preproc:   {result.preprocess.report}")
    print("partition:")
    for key, value in partition_summary(result.partition).items():
        print(f"  {key}: {value}")
    print("schedule:")
    for key, value in schedule_summary(result.schedule).items():
        print(f"  {key}: {value}")
    if result.program is not None:
        print(
            f"program:   {result.program.num_compute_instructions} compute "
            f"instructions in {result.program.num_queue_entries} queue "
            f"entries; peak buffer {result.program.peak_buffer_words} words; "
            f"{result.program.buffer_spills} spills"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FFCL-to-LPU compiler (DAC 2023 reproduction)"
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and print metrics")
    _add_common(p_compile, netlist_multi=True)
    p_compile.add_argument(
        "--bundle",
        action="store_true",
        help="package the netlist(s) as a format-v2 multi-program "
        "bundle: one compiled stage per netlist (through one shared "
        "pass cache), chained by an identity-by-name dataflow "
        "manifest; serve it whole with 'repro serve --artifact'",
    )
    p_compile.add_argument(
        "--json", action="store_true", help="emit metrics as JSON"
    )
    p_compile.add_argument(
        "--explain-passes",
        action="store_true",
        help="append the per-pass wall-time/size report",
    )
    p_compile.add_argument(
        "-o", "--output",
        metavar="FILE",
        default=None,
        help="also write the compiled executable as an ahead-of-time "
        ".lpa artifact (program + lowered trace tables + metadata)",
    )
    p_compile.add_argument(
        "--embed-fanout",
        action="store_true",
        help="embed the delta engine's fanout/cone tables in the .lpa "
        "artifact (streaming deployments boot with zero cone analysis)",
    )
    p_compile.add_argument(
        "--probe-words",
        type=int,
        default=None,
        metavar="N",
        help="words of known-answer probe vectors to embed in the .lpa "
        "artifact (64 samples each; replayed by 'inspect --verify' and "
        "at fabric store-upload time; default 2 when -o is given, 0 "
        "disables)",
    )
    p_compile.set_defaults(func=cmd_compile)

    p_inspect = sub.add_parser(
        "inspect", help="print an .lpa artifact's metadata"
    )
    p_inspect.add_argument("artifact", help=".lpa executable artifact file")
    p_inspect.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    p_inspect.add_argument(
        "--verify",
        action="store_true",
        help="replay the embedded probe vectors through a fresh engine "
        "(falls back to a functional cross-check when the artifact "
        "packages none); exit 1 on mismatch",
    )
    p_inspect.add_argument(
        "--profile",
        action="store_true",
        help="run the kernel-level sampling profiler on random stimulus "
        "and report the slowest levels",
    )
    p_inspect.add_argument(
        "--profile-engine",
        choices=("fused", "native"),
        default="fused",
        help="engine whose kernels --profile times",
    )
    p_inspect.add_argument(
        "--profile-words", type=_positive_int, default=64,
        help="uint64 words per primary input for --profile stimulus",
    )
    p_inspect.set_defaults(func=cmd_inspect)

    p_passes = sub.add_parser(
        "passes", help="per-pass compile report (or --list the registry)"
    )
    _add_common(p_passes, netlist_optional=True)
    p_passes.add_argument(
        "--list",
        action="store_true",
        help="list registered passes and named pipelines (no netlist needed)",
    )
    p_passes.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_passes.set_defaults(func=cmd_passes)

    p_sim = sub.add_parser("simulate", help="compile, execute, cross-check")
    _add_common(p_sim, netlist_optional=True)
    _add_artifact_source(p_sim)
    _add_engine(p_sim, default="cycle")
    _add_engine_options(p_sim)
    p_sim.add_argument("--seed", type=int, default=0, help="stimulus seed")
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser(
        "calibrate",
        help="time the vector kernel against the rowwise (hazard-ordered "
        "sequential) form and recommend --rowwise-min-words for this host",
    )
    _add_common(p_cal, netlist_optional=True)
    _add_artifact_source(p_cal)
    p_cal.add_argument(
        "--engine",
        choices=("fused", "native"),
        default="fused",
        help="engine whose executable forms to calibrate",
    )
    _add_engine_options(p_cal)
    p_cal.add_argument(
        "--max-words", type=_positive_int, default=2048,
        help="largest batch word count in the power-of-two sweep",
    )
    p_cal.add_argument(
        "--repeats", type=_positive_int, default=5,
        help="timing repetitions per point (best is kept)",
    )
    p_cal.add_argument("--seed", type=int, default=0, help="stimulus seed")
    p_cal.add_argument(
        "--json", action="store_true", help="emit measurements as JSON"
    )
    p_cal.set_defaults(func=cmd_calibrate)

    p_fserve = sub.add_parser(
        "serve",
        help="boot a fabric node: async HTTP inference front-end + "
        "shared artifact store",
    )
    _add_common(p_fserve, netlist_optional=True)
    _add_artifact_source(p_fserve)
    _add_engine(p_fserve, default="fused")
    _add_engine_options(p_fserve)
    p_fserve.add_argument(
        "--workers", type=_positive_int, default=2,
        help="engine workers in the node's serving pool",
    )
    p_fserve.add_argument(
        "--backend", choices=BACKENDS, default="thread",
        help="worker backend",
    )
    p_fserve.add_argument(
        "--placement", choices=PLACEMENTS, default="round_robin",
        help="worker placement policy",
    )
    p_fserve.add_argument(
        "--max-batch", type=_positive_int,
        default=ServeConfig.max_batch_size,
        help="max requests coalesced into one engine run",
    )
    p_fserve.add_argument(
        "--max-wait-ms", type=float, default=ServeConfig.max_wait_ms,
        help="longest a request waits for its batch to fill: a "
        "non-full batch is dispatched at this deadline, or as soon "
        "as a worker is free",
    )
    p_fserve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request deadline: requests the node "
        "cannot answer in time fail with HTTP 504 instead of "
        "waiting forever (default: no deadline)",
    )
    p_fserve.add_argument(
        "--share-tables", action="store_true",
        help="map fused tables into one shared-memory arena across "
        "spawn workers (one copy instead of N)",
    )
    p_fserve.add_argument(
        "--pipeline-depth", type=_positive_int, default=4,
        help="bundle artifacts: inter-stage queue bound, in batches "
        "(the pipeline executor's backpressure knob)",
    )
    p_fserve.add_argument(
        "--max-inflight", type=_positive_int, default=64,
        help="node-wide admission cap on in-flight requests "
        "(beyond it: HTTP 503)",
    )
    p_fserve.add_argument(
        "--client-rate", type=float, default=None, metavar="RPS",
        help="per-client admission rate (token bucket; beyond it: "
        "HTTP 429 with Retry-After); default unlimited",
    )
    p_fserve.add_argument(
        "--client-burst", type=float, default=8.0,
        help="per-client token-bucket burst reserve",
    )
    p_fserve.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    p_fserve.add_argument(
        "--port", type=int, default=0,
        help="bind port (0 picks a free one and prints it)",
    )
    p_fserve.add_argument(
        "--store", metavar="DIR", default=None,
        help="back the node's artifact store with this directory "
        "(default: in-memory)",
    )
    p_fserve.add_argument(
        "--store-url", metavar="URL", default=None,
        help="resolve compiled artifacts from another node's "
        "/v1/store (warm boot: zero compile passes when the "
        "workload is already stored)",
    )
    p_fserve.add_argument(
        "--no-store", action="store_true",
        help="do not serve this node's store at /v1/store",
    )
    p_fserve.add_argument(
        "--verify-artifacts", action="store_true",
        help="replay embedded probe vectors before accepting .lpa "
        "uploads into the store (reject corrupt artifacts with 422)",
    )
    p_fserve.set_defaults(func=cmd_serve)

    p_store = sub.add_parser(
        "store",
        help="inspect or prune an on-disk artifact store directory",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_store_list = store_sub.add_parser(
        "list", help="list stored blobs (oldest first) with sizes"
    )
    p_store_list.add_argument("root", help="artifact store directory")
    p_store_list.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )
    p_store_list.set_defaults(func=cmd_store)
    p_store_prune = store_sub.add_parser(
        "prune",
        help="evict least-recently-used blobs down to a size budget",
    )
    p_store_prune.add_argument("root", help="artifact store directory")
    p_store_prune.add_argument(
        "--max-bytes",
        type=_parse_size,
        required=True,
        metavar="SIZE",
        help="size budget to prune down to (e.g. 1048576, 512K, 64M, 2G; "
        "0 empties the store)",
    )
    p_store_prune.add_argument(
        "--json", action="store_true", help="emit the eviction report as JSON"
    )
    p_store_prune.set_defaults(func=cmd_store)

    p_report = sub.add_parser("report", help="per-stage compilation report")
    _add_common(p_report)
    p_report.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
