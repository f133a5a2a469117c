"""Benchmark entry point.  Run from the root of a checkout::

    python3 perfbench/run.py --workload search-general --seed 1 --seconds 20 --trace 0

It builds the package from the checkout's sources, sets up the workload's
inputs several times (``setup_s`` is the median), then runs whole passes over
the inputs until ``--seconds`` is spent, checks every answer, and prints one
JSON object as its last line.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from spans recorded around each call (see
README.md).  The result, and with ``--trace 1`` the spans, are also written
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter
from typing import NamedTuple

from pkgbuild import BuildError, build_package

# Set-up runs at least SETUPS times and until SETUP_SECONDS are spent, so
# that the median of a short set-up is taken over enough samples.
SETUPS = 3
SETUP_SECONDS = 1.0
OUT_DIR = Path(".bench_out")


class Pass(NamedTuple):
    traced: bool
    document: int  # which relabelling of every input this pass read
    seconds: float
    outcomes: list


def _op_means(untraced) -> list[float]:
    """Every operation's mean time over the untraced passes: first over the
    reads of each relabelling, then over the relabellings, so that a run
    that read some relabellings more often than others weighs them alike.
    An operation is one deal through its path, or one CLI call."""
    reads: dict[int, list] = {}
    for p in untraced:
        reads.setdefault(p.document, []).append([t for o in p.outcomes for t in (o.calls or (o.seconds,))])
    per_document = [[mean(ts) for ts in zip(*passes)] for passes in reads.values()]
    return [mean(ts) for ts in zip(*per_document)]


def _median_ms(values) -> float:
    return 1000 * median(values)


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _time_child(cli, argv, runs: int = 5) -> float:
    return median(cli.run(argv)[2] for _ in range(runs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        lib = build_package()
    except BuildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(lib))
    import crewsolver

    import workloads as wl
    from spans import NULL, Tracer

    if args.workload not in wl.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(wl.BUILDERS)}")
    if not Path(crewsolver.__file__).is_relative_to(lib):
        print(f"perfbench: imported {crewsolver.__file__}, not the build", file=sys.stderr)
        return 2

    cli_mode = args.workload == "cli-small"
    workdir = Path(".bench_build") / f"cli-work-{args.workload}-{args.seed}"
    tracer = Tracer() if args.trace else NULL
    try:
        # Set-up, several times; the last set-up's inputs are used.
        setup_times, setup_spans = [], []
        while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
            first = len(tracer.spans) if args.trace else 0
            t0 = perf_counter()
            cases = wl.BUILDERS[args.workload](args.seed, tracer, workdir)
            setup_times.append(perf_counter() - t0)
            if args.trace:
                setup_spans.append(tracer.totals(first))
        wl.attach_truth(cases)
        cli = wl.Cli(lib, workdir) if cli_mode else None

        # Passes.  Pass i reads document i of every input, so a run covers
        # every relabelling at least once.  With tracing, each document is
        # read by an untraced and then a traced pass; the difference between
        # the two is the tracing overhead.
        documents = max(len(c.texts) for c in cases)
        passes: list[Pass] = []
        traced_spans, traced_counts = [], []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            document = (len(passes) // 2 if args.trace else len(passes)) % documents
            tr = tracer if traced else NULL
            if traced:
                first, counts_before = len(tracer.spans), tracer.counts.copy()
            if cli_mode:
                outcomes = wl.run_pass_cli(cases, cli, tr)
            else:
                outcomes = wl.run_pass_in_process(cases, document, tr)
            passes.append(Pass(traced, document, sum(o.seconds for o in outcomes), outcomes))
            if traced:
                traced_spans.append(tracer.totals(first))
                traced_counts.append(tracer.counts - counts_before)
            elapsed = perf_counter() - start
            need = 2 if args.trace else documents
            if len(passes) >= need and elapsed + median(p.seconds for p in passes) > args.seconds:
                break
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb = max(o.peak_kb for p in passes for o in p.outcomes) if cli_mode else own

        # Checks: the first answer to every document in full; a later pass
        # over the same document must repeat it exactly.
        problems, failures, reference = [], [], {}
        for p in passes:
            for i, (case, out) in enumerate(zip(cases, p.outcomes)):
                if out.failed:
                    failures.append((case.name, out.failed))
                key = (i, p.document % len(case.texts))
                if key not in reference:
                    reference[key] = wl.fingerprint(out)
                    why = wl.check(case, case.texts[key[1]], out)
                    if why:
                        problems.append(f"{case.name} (document {key[1]}): {why}")
                elif wl.fingerprint(out) != reference[key]:
                    problems.append(f"{case.name} (document {key[1]}): differs between passes")
        for line in problems:
            print(f"WRONG {line}", file=sys.stderr)
        for name, why in sorted(set(failures)):
            print(f"FAILED {name}: {why}", file=sys.stderr)

        untraced = [p for p in passes if not p.traced]
        if args.trace:
            metrics = _layer_metrics(
                cli, untraced, [p for p in passes if p.traced], setup_spans, traced_spans, traced_counts
            )
        else:
            per_op = _op_means(untraced)
            # Decided inputs per pass, averaged over the relabellings read.
            per_document = {}
            for p in passes:
                per_document.setdefault(p.document, sum(o.decision is not None and not o.failed for o in p.outcomes))
            decided = sum(per_document.values()) / len(per_document)
            metrics = {
                "setup_s": (median(setup_times), "s"),
                "corpus_s": (sum(per_op), "s"),
                "op_p50_ms": (_median_ms(per_op), "ms"),
                "decided": (decided, "count"),
                "peak_rss_mb": (peak_kb / 1024, "MB"),
            }
        result = {
            "correct": not problems,
            "attempted": len(cases) * len(passes),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        detail = {
            **result,
            "passes": [{"traced": p.traced, "document": p.document, "seconds": p.seconds} for p in passes],
            "setup_seconds": setup_times,
            "wrong": problems,
            "failures": failures,
        }
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))
        if args.trace:
            tracer.write(OUT_DIR / f"{stem}.spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _layer_metrics(cli, untraced, traced, setup_spans, traced_spans, traced_counts) -> dict:
    def per_pass(name: str) -> float:
        return median(t.get(name, 0.0) for t in traced_spans)

    def setup(name: str) -> float:
        return median(t.get(name, 0.0) for t in setup_spans)

    counts = traced_counts[0]
    search_s = per_pass("exhaustive.run_search")
    verify_s = per_pass("verify.verify_sequence")
    calls = [c for p in traced for o in p.outcomes for c in o.calls]
    m = {
        "serialize.loads_instance_s": (per_pass("serialize.loads_instance"), "s"),
        "serialize.dumps_witness_s": (per_pass("serialize.dumps_witness"), "s"),
        "serialize.loads_witness_s": (per_pass("serialize.loads_witness"), "s"),
        "serialize.instance_mb": (counts["serialize.instance_bytes"] / 1e6, "MB"),
        "serialize.witness_mb": (counts["serialize.witness_bytes"] / 1e6, "MB"),
        "model.classify_s": (per_pass("model.classify"), "s"),
        "solvers.single_value_s": (per_pass("solvers.single_value"), "s"),
        "solvers.ss_owned_s": (per_pass("solvers.ss_owned"), "s"),
        "solvers.single_suit_s": (per_pass("solvers.single_suit"), "s"),
        "exhaustive.run_search_s": (search_s, "s"),
        "exhaustive.nodes": (counts["exhaustive.nodes"], "count"),
        "exhaustive.nodes_per_s": (counts["exhaustive.nodes"] / search_s if search_s else 0.0, "1/s"),
        "exhaustive.undecided": (counts["exhaustive.undecided"], "count"),
        "exhaustive.kernel": (counts["exhaustive.kernel"], "count"),
        "verify.verify_sequence_s": (verify_s, "s"),
        "verify.cards_per_s": (counts["verify.cards"] / verify_s if verify_s else 0.0, "1/s"),
        "generate.gen_s": (setup("generate.gen"), "s"),
        "reduction.reduce_s": (setup("reduction.reduce"), "s"),
        "cli.interp_ms": (0.0, "ms"),
        "cli.import_ms": (0.0, "ms"),
        "cli.call_p50_ms": (_median_ms(calls) if calls else 0.0, "ms"),
        "cli.call_p90_ms": (1000 * _quantile(calls, 0.9) if calls else 0.0, "ms"),
        "trace.overhead_s": (median(p.seconds for p in traced) - median(p.seconds for p in untraced), "s"),
    }
    if cli is not None:
        interp = _time_child(cli, ["-c", "pass"])
        m["cli.interp_ms"] = (1000 * interp, "ms")
        m["cli.import_ms"] = (1000 * (_time_child(cli, ["-c", "import crewsolver.cli"]) - interp), "ms")
    return m


if __name__ == "__main__":
    sys.exit(main())
