#!/usr/bin/env python3
"""One benchmark for the whole stack.

    python3 bench/run.py                 all six workloads, end-to-end metrics
    python3 bench/run.py --trace         ... and the traced run of each
    python3 bench/run.py --smoke         0.3 s windows; asserts only that every
                                         metric appears, finite, nothing failed
    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1
                                         one run; the last stdout line is JSON

Every workload runs in a child process of its own with PYTHONHASHSEED=0
(``layer_block`` seeds from ``hash(layer.name)``); the child's stderr goes
to ``bench/out/<workload>.stderr``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 3  # boots per untraced run; setup_s takes their median
TRACE_SHARE = 0.3  # a traced run's two windows, as a share of --seconds
SMOKE_WINDOW_S = 0.3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child: one workload, one process
# ----------------------------------------------------------------------
def child(args) -> int:
    started = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from types import SimpleNamespace

    import measure

    cpus = measure.pin_to_one_cpu()  # before numpy or repro start a thread
    import corpus
    import workloads

    spec = load_spec()
    by_name = {w.name: w for w in workloads.all_workloads()}
    named = by_name[args.workload]
    slugs = corpus.SLUGS if args.trace else named.slugs
    graphs, build_ms = measure.timed_ms(corpus.build_graphs, slugs, args.corpus_seed)
    fingerprints, recorded = corpus.check_fingerprints(graphs, args.corpus_seed)
    # imports, corpus build and fingerprints happen once per process and
    # are set-up; drawing the stimuli below is the generator's own cost
    once_s = time.perf_counter() - started
    ctx = SimpleNamespace(
        seed=args.seed, corpus_seed=args.corpus_seed, graphs=graphs,
        smoke=args.smoke, tracer=workloads.UNTRACED, build_ms=build_ms,
        cpus=cpus,
    )
    seconds = args.seconds if args.seconds is not None else named.window_s
    host = measure.host_fingerprint()
    host.update(pinned_cpu=max(cpus, default=None), seed=args.seed,
                corpus_seed=args.corpus_seed, workload=named.name,
                window_s=seconds, trace=args.trace)
    print("# host", json.dumps(host))
    print("# corpus ({}) {}".format(
        "matches the recorded draw" if recorded else "no recorded draw for this seed",
        " ".join(f"{s}={fp[:12]}" for s, fp in fingerprints.items())))
    if args.trace:
        rows, attempted, failed = traced(ctx, by_name, named, seconds, host)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        rows, attempted, failed = untraced(ctx, named, seconds, once_s)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(rows) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(rows))}, unnamed {sorted(set(rows) - set(units))}")
    print(f"{'metric':46s} {'value':>16s} {'unit':10s} {'n':>7s} {'spread':>7s}")
    for name in units:
        row = rows[name]
        print(f"{name:46s} {row['value']:16.6g} {units[name]:10s} "
              f"{row.get('n', 1):7d} {row.get('spread', 0.0):7.1%}")
    print(f"{'failed_frac':46s} {failed / attempted:16.6g} {'ratio':10s} "
          f"{attempted:7d} {0.0:7.1%}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": rows[name]["value"], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if failed == 0 else 1


def _tally(state):
    """(attempted, failed) over a state's lanes; failures go to stderr."""
    for lane in state.lanes:
        for error in lane.errors:
            print("# failure:", error, file=sys.stderr)
    return (sum(lane.attempted for lane in state.lanes),
            sum(lane.failed for lane in state.lanes))


def untraced(ctx, workload, seconds, once_s):
    """Boot SETUP_REPEATS times (the last boot is measured), sample the
    cold start, run the window with tracing off, then check everything
    any boot kept — after the window, so the oracle's memory stays out
    of peak_rss_mb."""
    import measure

    workload.prepare(ctx)
    states, boots, state = [], [], None
    try:
        for _ in range(1 if ctx.smoke else SETUP_REPEATS):
            if state is not None:
                workload.close(state)
                state = None
            began = measure.now()
            state = workload.boot(ctx)
            states.append(state)
            workload.warm(ctx, state)
            boots.append(measure.now() - began)
        for _ in range(0 if ctx.smoke else workload.cold_extra):
            workload.cold_start(ctx, state)
        lanes, start = workload.run(ctx, state, seconds, ctx.tracer)
    finally:
        if state is not None:
            workload.close(state)
    rows = measure.summarize(lanes, start, workload.align)
    for name, value in workload.end_to_end(state).items():
        rows[name] = {"value": value}
    cold_ms, samples = workload.coldstart(state)
    rows["coldstart_ms"] = {"value": cold_ms, "n": len(samples),
                            "spread": measure.spread(samples)}
    rows["setup_s"] = {"value": once_s + measure.median(boots),
                       "n": len(boots), "spread": measure.spread(boots)}
    rows["peak_rss_mb"] = {"value": measure.peak_rss_mb()}
    attempted = failed = 0
    for booted in states:
        counts = _tally(booted)
        attempted += counts[0]
        failed += counts[1] + workload.verify(ctx, booted)
    return rows, attempted, failed


def traced(ctx, by_name, named, seconds, host):
    """The layer ladder: every workload's loop with spans on — the named
    one for a full window next to an untraced window of the same length,
    the others briefly — plus the layer probes.  A metric several loops
    report is taken from the named workload first."""
    import measure
    import probes
    import workloads

    short = 0.3 if ctx.smoke else 0.5
    window = max(short, seconds * TRACE_SHARE)
    metrics = {
        "models.corpus.build_ms": ctx.build_ms,
        "netlist.corpus.gates": sum(g.num_gates for g in ctx.graphs.values()),
    }
    attempted = failed = 0
    order = [named] + [w for w in by_name.values() if w is not named]
    for workload in order:
        ctx.tracer = tracer = measure.Tracer()
        workload.prepare(ctx)
        state = workload.boot(ctx)
        try:
            workload.warm(ctx, state)
            if workload is named:
                lanes, start = workload.run(ctx, state, window, workloads.UNTRACED)
                base = measure.summarize(lanes, start, workload.align)
            lanes, start = workload.run(
                ctx, state, window if workload is named else short, tracer)
            with_spans = measure.summarize(lanes, start, workload.align)
            layer = workload.layer_metrics(ctx, state, tracer)
            failed += workload.verify(ctx, state)
        finally:
            workload.close(state)
        counts = _tally(state)
        attempted, failed = attempted + counts[0], failed + counts[1]
        for name, value in layer.items():
            metrics.setdefault(name, value)
        if workload is named:
            # latency for an open loop (its rate is fixed), else rate
            if workload.open_loop:
                overhead = (with_spans["lat_p50_ms"]["value"]
                            / base["lat_p50_ms"]["value"] - 1.0)
            else:
                overhead = 1.0 - (with_spans["ops_per_s"]["value"]
                                  / base["ops_per_s"]["value"])
            metrics["trace_overhead_frac"] = overhead
            named_tracer = tracer
    piped, tried, wrong = probes.pipeline(ctx)
    metrics.update(piped)
    attempted, failed = attempted + tried, failed + wrong
    metrics.update(probes.lpu_model())
    # measured bytes against twice the copy rate: a copied byte is one
    # read and one write, an instruction-word two reads and one write
    metrics["engine.fused.roofline_frac"] = metrics["engine.fused.bytes_per_s"] / (
        2e9 * metrics["host.memcpy_gb_per_s"])
    path = os.path.join(OUT, f"trace_{named.name}.json")
    named_tracer.dump(path, {"host": host, "per_layer": metrics})
    print(f"# spans {len(named_tracer.spans)} -> {os.path.relpath(path, ROOT)}")
    print("# ladder: serve/engine = {:.2f} (base {:.1f} us), fabric/serve = {:.2f} "
          "(base {:.1f} us)".format(
              metrics["ladder.serve_over_engine"], metrics["ladder.engine_base_us"],
              metrics["ladder.fabric_over_serve"], metrics["ladder.serve_base_us"]))
    for row in named_tracer.layer_table():
        print("# span {span:40s} n={count:<7d} total={total_ms:10.2f} ms "
              "self={self_ms:10.2f} ms".format(**row))
    return {n: {"value": float(v)} for n, v in metrics.items()}, attempted, failed


# ----------------------------------------------------------------------
# Parent: spawn, capture, report
# ----------------------------------------------------------------------
def spawn(workload: str, args, trace: int, seconds, smoke: bool = False):
    """Run one child; returns (exit code, its stdout lines)."""
    os.makedirs(OUT, exist_ok=True)
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--corpus-seed", str(args.corpus_seed), "--trace", str(trace),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    stderr_path = os.path.join(OUT, f"{workload}.stderr")
    with open(stderr_path, "w") as stderr:
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=stderr,
            text=True)
        try:
            stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            print(f"{workload}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 124, []
    if process.returncode != 0:
        with open(stderr_path) as handle:
            sys.stderr.write("".join(handle.readlines()[-15:]))
    return process.returncode, stdout.splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def smoke(args, spec) -> int:
    """Every workload untraced and one traced run, all smoke-sized."""
    import measure

    names = [w["name"] for w in spec["workloads"]]
    problems = []
    # fabric_open is the cheapest to trace: one small program, open loop
    for workload, trace in [(n, 0) for n in names] + [("fabric_open", 1)]:
        code, lines = spawn(workload, args, trace, SMOKE_WINDOW_S, smoke=True)
        result = result_of(lines)
        label = f"{workload} trace={trace}"
        if code != 0 or result is None:
            problems.append(f"{label}: exit {code}")
            continue
        for metric in spec["per_layer" if trace else "end_to_end"]:
            value = result["metrics"].get(metric["name"], {}).get("value")
            if not measure.finite(value):
                problems.append(f"{label}: {metric['name']} = {value!r}")
        if result["failed"]:
            problems.append(f"{label}: {result['failed']} failed")
        print(f"ok   {label}: {len(result['metrics'])} metrics, "
              f"{result['attempted']} attempted, {result['failed']} failed")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=0,
                        help="draws stimuli and streams")
    parser.add_argument("--corpus-seed", type=int, default=0,
                        help="draws the nine programs (fingerprints recorded "
                             "for 0 and 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="window length (default: each workload's own)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # an installed copy must not stand in for the checkout under test
        print(f"no src/repro next to {HERE}: nothing to measure", file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.smoke:
        return smoke(args, spec)
    if args.workload is not None:
        code, lines = spawn(args.workload, args, args.trace, args.seconds)
        if lines:
            print("\n".join(lines))
        return code
    worst = 0
    summary = []
    for workload in names:
        for trace in ([0, 1] if args.trace else [0]):
            code, lines = spawn(workload, args, trace, args.seconds)
            print("\n".join(lines[:-1]))
            worst = max(worst, code)
            result = result_of(lines)
            if result is not None and not trace:
                summary.append((workload, result))
    print("\n== end to end ==")
    for metric in spec["end_to_end"]:
        cells = "  ".join(
            f"{workload}={result['metrics'][metric['name']]['value']:.6g}"
            for workload, result in summary)
        print(f"{metric['name']:18s} [{metric['unit']}, {metric['better']} is "
              f"better, bound {metric['bound']:.1%}]  {cells}")
    print("failed:", "  ".join(f"{w}={r['failed']}/{r['attempted']}" for w, r in summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
