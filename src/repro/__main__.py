"""Command-line interface.

    python -m repro run PROG.c [--optimize] [--args N ...]
    python -m repro analyze PROG.c [--optimize] [--static | --analytic]
                                   [--delta D] [--json [FILE]]
                                   [--remote HOST:PORT]
    python -m repro predict PROG.c [--config S[,A[,B]] ...] [--sweep]
                                   [--no-fallback] [--top N]
                                   [--json [FILE]] [--remote HOST:PORT]
    python -m repro tlb PROG.c [--geometry P,E[,A] ...] [--threshold T]
                               [--top N] [--json [FILE]]
                               [--remote HOST:PORT]
    python -m repro redundancy PROG.c [--top N] [--json [FILE]]
                                      [--remote HOST:PORT]
    python -m repro disasm PROG.c [--optimize]
    python -m repro asm PROG.c [--optimize]
    python -m repro verify PROG.c [--optimize]
    python -m repro campaign [--tables 1,7] [--scale S] [--report F]
                             [--jobs N] [--resume]
                             [--status]        (aliases: warm, tables)
    python -m repro cache gc [--limit SIZE] [--dry-run]
    python -m repro serve [--port P] [--workers N] [--stats]
    python -m repro fuzz [--seed N] [--cases N] [--time S]
                         [--oracles a,b] [--self-check]

``run`` executes the program on the bundled simulator; ``analyze`` runs
the paper's delinquent-load identification and prints the flagged loads
with their address patterns; ``predict``, ``tlb`` and ``redundancy``
print predicted cache misses, dTLB misses with the PCAX cross-tab, and
redundant reloads per load.  Those four answer a service op through
:func:`call_op`: ``--json`` emits its payload, and ``--remote`` sends
the request to a running ``repro serve`` (same bytes either way).
``disasm``/``asm`` show the generated code; ``campaign`` regenerates
the experiment grid (``--report`` writes EXPERIMENTS.md); ``serve``
starts the analysis service (:mod:`repro.service`); ``fuzz``
differentially tests the redundant fast paths (:mod:`repro.fuzz`).

Exit codes: 0 success; 1 a failed check (``verify``, ``fuzz``) or the
program's own exit code under ``run``; 2 a wrong request (flag, file,
a source that does not compile, params, ``--remote`` address, a served
``bad_request``); 3 the service failed (connect, transport,
``overloaded``, ``timeout``, ``internal``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional


class CliError(Exception):
    """A diagnosed failure: ``main`` prints it and exits with ``code``
    (2: the request was wrong; 3: the service failed)."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def cmd_run(args: argparse.Namespace) -> int:
    from repro.compiler.driver import compile_source
    from repro.machine.simulator import run_program
    program = compile_source(_read(args.source), optimize=args.optimize)
    result = run_program(program, args=tuple(args.args),
                         trace_memory=False)
    for value in result.output:
        print(value)
    return result.exit_code


def _emit_json(payload: dict, destination: str) -> None:
    """``--json`` output: stdout for ``-``, else a file."""
    import json
    text = json.dumps(payload, indent=2)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w") as handle:
            handle.write(text + "\n")


def call_op(op: str, request: dict, remote: Optional[str]) -> dict:
    """Answer one service op in-process, or on ``remote`` (HOST:PORT).

    The request and the address are checked first, so a wrong one fails
    with exit 2 before any connection is made; both paths then run the
    server's compute, so local and remote payloads are identical.
    """
    from repro.service.client import (ServiceClient, ServiceError,
                                      parse_address)
    from repro.service.ops import execute_op
    from repro.service.protocol import (BAD_REQUEST, ProtocolError,
                                        normalize)
    try:
        params = normalize(op, request)
        address = parse_address(remote) if remote else None
    except (ProtocolError, ValueError) as exc:
        raise CliError(str(exc))
    if address is None:
        return execute_op(op, params)
    try:
        with ServiceClient(*address) as client:
            return client.call(op, request)
    except ServiceError as exc:
        raise CliError(str(exc), 2 if exc.code == BAD_REQUEST else 3)
    except OSError as exc:
        raise CliError(str(exc), 3)


def _answer(op: str, args: argparse.Namespace,
            render: Callable[[dict, argparse.Namespace], None],
            **params) -> int:
    """Request ``op`` on the source file plus ``params`` through
    :func:`call_op`, then print ``--json`` or the verb's rendering."""
    request = {"source": _read(args.source), "optimize": args.optimize,
               **params}
    payload = call_op(op, request, args.remote)
    if args.json is not None:
        _emit_json(payload, args.json)
    else:
        render(payload, args)
    return 0


def _print_payload_summary(payload: dict, args: argparse.Namespace) -> None:
    """Human-readable summary of an exported report payload.

    Mirrors the in-process ``analyze`` output but works from the JSON
    schema alone, so remote responses need no compiled program.
    """
    summary = payload["summary"]
    print(f"|Lambda| = {summary['num_loads']} static loads; "
          f"|Delta| = {summary['num_delinquent']} possibly delinquent "
          f"(pi = {summary['pi']:.1%})")
    if "rho" in summary:
        print(f"measured coverage rho = {summary['rho']:.1%}")
    print()
    flagged = [entry for entry in payload["loads"]
               if entry["delinquent"]]
    for entry in sorted(flagged, key=lambda e: -e["phi"]):
        print(f"load at {entry['address']} in {entry['function']}: "
              f"{entry['instruction']}")
        print(f"  phi = {entry['phi']:.2f} (possibly delinquent)")
        print(f"  classes: {', '.join(entry['classes']) or '(none)'}")
        for pattern in entry["patterns"]:
            print(f"  pattern: {pattern}")
        if "misses" in entry:
            print(f"  observed: {entry['misses']} misses / "
                  f"{entry['accesses']} accesses")
        print()


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.remote:
        if args.static or args.analytic:
            # the service's analyze op executes the program, and its
            # classify op has no static-frequency classes
            flag = "--static" if args.static else "--analytic"
            raise CliError(f"{flag} cannot be combined with --remote")
        return _answer("analyze", args, _print_payload_summary,
                       delta=args.delta)
    from repro.api import analyze_program
    from repro.heuristic.static_frequency import static_exec_counts
    report = analyze_program(
        _read(args.source), optimize=args.optimize,
        execute=not (args.static or args.analytic), delta=args.delta)
    if args.analytic:
        # Trace-free "observed" numbers: predicted per-PC misses from
        # the analytic reuse engine stand in for the measured ones, so
        # coverage (rho) is available with zero machine executions.
        from repro.analytic import predict_profile
        from repro.cache.config import BASELINE_CONFIG
        profile = predict_profile(report.program,
                                  block_size=BASELINE_CONFIG.block_size)
        report.cache_stats = profile.evaluate(BASELINE_CONFIG)
        note = "confident" if profile.confident \
            else "LOW - misses below are rough estimates"
        print(f"analytic prediction: coverage {profile.coverage:.1%} "
              f"({note})")
    if args.static:
        # re-classify with statically estimated frequencies
        from repro.heuristic.classifier import DelinquencyClassifier
        classifier = DelinquencyClassifier(delta=args.delta)
        report.heuristic = classifier.classify(
            report.load_infos,
            exec_counts=static_exec_counts(report.program))
    if args.json is not None:
        from repro.export import report_to_dict
        _emit_json(report_to_dict(report), args.json)
        return 0
    loads = report.program.num_loads()
    delta_set = report.delinquent_loads
    print(f"|Lambda| = {loads} static loads; "
          f"|Delta| = {len(delta_set)} possibly delinquent "
          f"(pi = {report.pi:.1%})")
    if report.rho is not None:
        print(f"measured coverage rho = {report.rho:.1%}")
    print()
    scores = report.heuristic.scores()
    for address in sorted(delta_set, key=lambda a: -scores[a]):
        print(report.describe_load(address))
        print()
    return 0


def _predict_configs(args: argparse.Namespace) -> list[dict]:
    """Cache geometries from ``--sweep`` / ``--config``, wire form."""
    from repro.cache.config import (BASELINE_CONFIG, CacheConfig,
                                    associativity_sweep, size_sweep)
    from repro.cache.model import cache_config_to_dict
    configs = []
    if args.sweep:
        configs = list(dict.fromkeys(associativity_sweep()
                                     + size_sweep()))
    try:
        for text in args.config:
            parts = [int(p) for p in text.split(",")]
            if not 1 <= len(parts) <= 3:
                raise ValueError(f"bad --config {text!r}; expected "
                                 "SIZE[,ASSOC[,BLOCK_SIZE]]")
            configs.append(CacheConfig(
                size=parts[0],
                assoc=parts[1] if len(parts) > 1 else 1,
                block_size=parts[2] if len(parts) > 2 else 32))
    except ValueError as exc:
        raise CliError(str(exc))
    return [cache_config_to_dict(c) for c in configs or [BASELINE_CONFIG]]


def cmd_predict(args: argparse.Namespace) -> int:
    """Per-PC miss prediction for a geometry grid, zero executions."""
    return _answer("predict", args, _print_prediction,
                   configs=_predict_configs(args),
                   fallback=not args.no_fallback)


def _print_prediction(payload: dict, args: argparse.Namespace) -> None:
    mode = "analytic (no execution)" if payload.get("analytic") \
        else "measured fallback (low static confidence)"
    print(f"prediction mode: {mode}; "
          f"coverage {payload.get('coverage', 0.0):.1%}")
    low = payload.get("low_confidence_pcs") or {}
    if low:
        flagged = ", ".join(f"{pc} ({'/'.join(reasons)})"
                            for pc, reasons in sorted(low.items()))
        print(f"low-confidence loads: {flagged}")
    print()
    for entry in payload["results"]:
        print(f"{entry['description']}: "
              f"{entry['total_load_misses']} predicted load misses / "
              f"{entry['total_load_accesses']} accesses")
        top = sorted(entry["load_misses"].items(),
                     key=lambda kv: -kv[1])[:args.top]
        for pc, misses in top:
            accesses = entry["load_accesses"].get(pc, 0)
            print(f"  {pc}: {misses} / {accesses}")


def _tlb_geometries(args: argparse.Namespace) -> list[dict]:
    """TLB geometries from ``--geometry`` / the single-geometry flags."""
    from repro.tlb import TlbConfig
    try:
        configs = []
        for text in args.geometry:
            parts = [int(p) for p in text.split(",")]
            if not 2 <= len(parts) <= 3:
                raise ValueError(f"bad --geometry {text!r}; expected "
                                 "PAGE_SIZE,ENTRIES[,ASSOC]")
            configs.append(TlbConfig(
                page_size=parts[0], entries=parts[1],
                assoc=parts[2] if len(parts) > 2 else 0))
        if not configs:
            configs.append(TlbConfig(page_size=args.page_size,
                                     entries=args.entries,
                                     assoc=args.assoc))
    except ValueError as exc:
        raise CliError(str(exc))
    return [c.to_dict() for c in configs]


def cmd_tlb(args: argparse.Namespace) -> int:
    """Page-granular dTLB simulation plus the PCAX cross-tab."""
    return _answer("tlb", args, _print_tlb,
                   geometries=_tlb_geometries(args),
                   threshold=args.threshold)


def _print_tlb(payload: dict, args: argparse.Namespace) -> None:
    for entry in payload["results"]:
        print(f"{entry['description']}: "
              f"{entry['total_misses']} misses / "
              f"{entry['total_accesses']} accesses "
              f"({entry['miss_rate']:.2%})")
        top = sorted(entry["load_misses"].items(),
                     key=lambda kv: -kv[1])[:args.top]
        for pc, misses in top:
            accesses = entry["load_accesses"].get(pc, 0)
            print(f"  {pc}: {misses} / {accesses}")
    pcax = payload["pcax"]
    print()
    print(f"PCAX @ {pcax['page_size']}B pages "
          f"(threshold {pcax['threshold']:.0%}): "
          f"{len(pcax['friendly'])} translation-predictable loads, "
          f"{len(pcax['delinquent'])} delinquent")
    cross = pcax["crosstab"]
    print(f"  both: {cross['both']}  "
          f"delinquent-only: {cross['delinquent_only']}  "
          f"friendly-only: {cross['friendly_only']}  "
          f"neither: {cross['neither']}")


def cmd_redundancy(args: argparse.Namespace) -> int:
    """Per-PC redundant-load counts plus the AG-class cross-tab."""
    return _answer("redundancy", args, _print_redundancy)


def _print_redundancy(payload: dict, args: argparse.Namespace) -> None:
    print(f"{payload['total_redundant']} redundant loads / "
          f"{payload['total_loads']} total ({payload['ratio']:.2%}); "
          f"{payload['total_reload_after_store']} reload after store")
    ranked = sorted(payload["loads"].items(),
                    key=lambda kv: -kv[1]["redundant"])[:args.top]
    for pc, row in ranked:
        print(f"  {pc}: {row['redundant']} / {row['accesses']} "
              f"redundant ({row['reload_after_store']} after store)")
    classes = {name: row for name, row in payload["classes"].items()
               if row["loads"]}
    if classes:
        print()
        for name, row in sorted(classes.items()):
            print(f"  {name}: {row['redundant']} / {row['loads']} "
                  f"redundant across {row['pcs']} loads")


def cmd_disasm(args: argparse.Namespace) -> int:
    from repro.asm.disassembler import disassemble
    from repro.compiler.driver import compile_source
    program = compile_source(_read(args.source), optimize=args.optimize)
    print(disassemble(program))
    return 0


def cmd_asm(args: argparse.Namespace) -> int:
    from repro.compiler.driver import generate_assembly
    print(generate_assembly(_read(args.source), optimize=args.optimize))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.asm.verify import verify_program
    from repro.compiler.driver import compile_source
    program = compile_source(_read(args.source), optimize=args.optimize)
    issues = verify_program(program)
    for issue in issues:
        print(issue)
    print(f"{len(issues)} issue(s) in "
          f"{len(program.instructions)} instructions")
    return 1 if issues else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service.server import ServerConfig, run_server
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        timeout=args.timeout,
        cache_entries=args.cache_entries,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        use_disk_cache=not args.no_disk_cache,
    )
    run_server(config, stats=args.stats)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz import run_fuzz, run_self_check

    def say(text: str) -> None:
        print(text, file=sys.stderr)

    oracle_names = None
    if args.oracles != "all":
        oracle_names = tuple(
            name.strip() for name in args.oracles.split(",")
            if name.strip())

    if args.self_check:
        payload = run_self_check(seed=args.seed, progress=say)
        _emit_json(payload, args.report)
        say(f"self-check {'passed' if payload['ok'] else 'FAILED'}: "
            f"mutation caught={payload['caught']}, shrunk to "
            f"{payload['shrunk_rows']} rows, clean after "
            f"restore={payload['clean_after_restore']}")
        return 0 if payload["ok"] else 1

    cases = args.cases
    if cases is None and args.time is None:
        cases = 200     # the default budget when neither is given
    report = run_fuzz(
        seed=args.seed,
        cases=cases,
        time_budget=args.time,
        oracle_names=oracle_names,
        shrink=not args.no_shrink,
        corpus_dir=Path(args.corpus_dir) if args.corpus_dir else None,
        progress=say)
    payload = report.to_dict()
    _emit_json(payload, args.report)
    say(f"fuzz: {report.cases_run} cases, "
        f"{sum(report.oracle_runs.values())} oracle runs, "
        f"{len(report.divergences)} divergence(s), "
        f"{len(report.errors)} harness error(s) "
        f"in {report.elapsed_seconds:.1f}s")
    return 0 if report.ok else 1


def cmd_cache_gc(args: argparse.Namespace) -> int:
    from pathlib import Path
    from repro.pipeline.session import default_cache_dir
    from repro.store.gc import collect_garbage, parse_size
    root = Path(args.cache_dir) if args.cache_dir \
        else default_cache_dir()
    try:
        limit = parse_size(args.limit)
    except ValueError as error:
        print(f"cache gc: {error}", file=sys.stderr)
        return 2
    report = collect_garbage(root, limit, dry_run=args.dry_run)
    print(report.describe())
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.campaign import Campaign, campaign_dir, code_digest
    from repro.campaign.manifest import Manifest
    from repro.pipeline.session import Session, _resolve_jobs

    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    if args.status:
        base = campaign_dir(cache_dir)
        manifest = Manifest(base)
        print(json.dumps(manifest.status(
            current_code=code_digest()), indent=2))
        return 0
    numbers = None
    if args.tables != "all":
        try:
            numbers = [int(x) for x in args.tables.split(",")]
        except ValueError:
            raise CliError(f"bad --tables {args.tables!r}")
    try:
        jobs = _resolve_jobs(args.jobs)
    except ValueError as exc:
        raise CliError(str(exc))
    session = Session(scale=args.scale, cache_dir=cache_dir,
                      use_disk_cache=not args.no_disk_cache)
    try:
        campaign = Campaign(session, numbers=numbers)
    except ValueError as exc:
        raise CliError(str(exc))
    result = campaign.run(jobs=jobs, resume=args.resume, echo=print)
    if args.echo_tables:
        for number in sorted(result.tables):
            print(result.tables[number])
            print()
    if args.report:
        from repro.experiments.ablations import ABLATIONS
        from repro.experiments.report import write_report
        exhibits = campaign.exhibits(result)
        for number, build in sorted(ABLATIONS.items()):
            exhibits[number] = build(session)
        write_report(exhibits, args.report, scale=args.scale)
        print(f"report written to {args.report}")
    print(f"campaign: {result.describe()}")
    store = result.profile_store
    if store:
        print(f"profile store: {json.dumps(store, sort_keys=True)}")
    print(f"tables + manifest under {campaign.directory}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.fuzz.oracles import ORACLES
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Static identification of delinquent loads "
                    "(CGO 2004 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("source", help="MiniC source file")
        p.add_argument("--optimize", "-O", action="store_true",
                       help="compile with optimizations")

    def add_output(p, what):
        """``--json`` and ``--remote`` of the verbs ``call_op`` answers."""
        p.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="FILE",
                       help=f"emit {what} as JSON to stdout, or to FILE "
                            f"when given")
        p.add_argument("--remote", default=None, metavar="HOST:PORT",
                       help="send the request to a running "
                            "'repro serve' instance instead of "
                            "computing in-process")

    p_run = sub.add_parser("run", help="compile and execute")
    add_source(p_run)
    p_run.add_argument("--args", nargs="*", type=int, default=[],
                       help="integer arguments passed to main")
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze",
                          help="identify possibly delinquent loads")
    add_source(p_an)
    p_an.add_argument("--delta", type=float, default=0.10,
                      help="delinquency threshold (default 0.10)")
    p_an.add_argument("--static", action="store_true",
                      help="purely static: no execution; frequency "
                           "classes use the static estimator")
    p_an.add_argument("--analytic", action="store_true",
                      help="no execution either, but attach per-load "
                           "miss counts predicted by the analytic "
                           "reuse engine (enables rho trace-free)")
    add_output(p_an, "the full analysis (repro.export schema)")
    p_an.set_defaults(func=cmd_analyze)

    p_pred = sub.add_parser(
        "predict",
        help="predict per-load misses for a cache-geometry grid "
             "without executing (analytic reuse engine)")
    add_source(p_pred)
    p_pred.add_argument("--config", action="append", default=[],
                        metavar="SIZE[,ASSOC[,BLOCK]]",
                        help="cache geometry to evaluate (repeatable; "
                             "default: the paper's baseline cache)")
    p_pred.add_argument("--sweep", action="store_true",
                        help="evaluate the paper's associativity + "
                             "size sweep grid (tables 8/9)")
    p_pred.add_argument("--no-fallback", action="store_true",
                        help="answer analytically even when static "
                             "coverage is below the confidence "
                             "threshold (never run the workload)")
    p_pred.add_argument("--top", type=int, default=5,
                        help="per-config loads to print (default 5)")
    add_output(p_pred, "the prediction")
    p_pred.set_defaults(func=cmd_predict)

    p_tlb = sub.add_parser(
        "tlb",
        help="simulate dTLB geometries at page granularity and "
             "cross-tabulate delinquent vs PCAX-friendly loads")
    add_source(p_tlb)
    p_tlb.add_argument("--geometry", action="append", default=[],
                       metavar="PAGE_SIZE,ENTRIES[,ASSOC]",
                       help="TLB geometry to evaluate (repeatable; "
                            "ASSOC 0 = fully associative)")
    p_tlb.add_argument("--page-size", type=int, default=4096,
                       help="page size in bytes when no --geometry is "
                            "given (default 4096)")
    p_tlb.add_argument("--entries", type=int, default=64,
                       help="TLB entries when no --geometry is given "
                            "(default 64)")
    p_tlb.add_argument("--assoc", type=int, default=0,
                       help="TLB associativity when no --geometry is "
                            "given (default 0 = fully associative)")
    p_tlb.add_argument("--threshold", type=float, default=0.9,
                       help="PCAX friendliness bar: minimum predicted "
                            "fraction of page translations "
                            "(default 0.9)")
    p_tlb.add_argument("--top", type=int, default=5,
                       help="per-geometry loads to print (default 5)")
    add_output(p_tlb, "the result")
    p_tlb.set_defaults(func=cmd_tlb)

    p_red = sub.add_parser(
        "redundancy",
        help="count same-address reloads (and reloads after stores) "
             "per load PC, cross-tabulated against the AG classes")
    add_source(p_red)
    p_red.add_argument("--top", type=int, default=5,
                       help="loads to print (default 5)")
    add_output(p_red, "the result")
    p_red.set_defaults(func=cmd_redundancy)

    p_dis = sub.add_parser("disasm", help="show the disassembly")
    add_source(p_dis)
    p_dis.set_defaults(func=cmd_disasm)

    p_asm = sub.add_parser("asm", help="show the generated assembly")
    add_source(p_asm)
    p_asm.set_defaults(func=cmd_asm)

    p_ver = sub.add_parser("verify",
                           help="structurally verify the generated code")
    add_source(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_cache = sub.add_parser(
        "cache", help="manage the on-disk result/trace cache")
    cache_sub = p_cache.add_subparsers(dest="cache_command",
                                       required=True)
    p_gc = cache_sub.add_parser(
        "gc", help="bound .repro_cache by size with LRU eviction")
    p_gc.add_argument("--limit", default="512M",
                      help="size budget, e.g. 100K / 512M / 2G "
                           "(default 512M)")
    p_gc.add_argument("--cache-dir", default=None,
                      help="cache directory (default: the shared "
                           ".repro_cache)")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be evicted without "
                           "deleting anything")
    p_gc.set_defaults(func=cmd_cache_gc)

    p_camp = sub.add_parser(
        "campaign", aliases=["warm", "tables"],
        help="regenerate the experiment grid through the DAG-aware "
             "campaign engine (parallel, resumable, provenance-"
             "recorded; see repro.campaign); fills .repro_cache")
    p_camp.add_argument("--tables", default="all",
                        help="comma-separated table numbers "
                             "(default: all)")
    p_camp.add_argument("--scale", type=float, default=1.0,
                        help="workload size multiplier (default 1.0)")
    p_camp.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS, "
                             "then the CPU count)")
    p_camp.add_argument("--resume", action="store_true",
                        help="skip cells whose manifest entry matches "
                             "the current code digest and whose "
                             "artifacts are still warm")
    p_camp.add_argument("--status", action="store_true",
                        help="print a summary of the campaign "
                             "manifest and exit")
    p_camp.add_argument("--echo-tables", action="store_true",
                        help="print every rendered table to stdout")
    p_camp.add_argument("--report", default=None, metavar="PATH",
                        help="also write the paper-vs-measured report "
                             "(the tables plus the ablations) to PATH")
    p_camp.add_argument("--cache-dir", default=None,
                        help="result-cache directory "
                             "(default: .repro_cache)")
    p_camp.add_argument("--no-disk-cache", action="store_true",
                        help="disable the on-disk result cache (cells "
                             "are then computed in this process: "
                             "workers would have nowhere to publish)")
    p_camp.set_defaults(func=cmd_campaign)

    p_srv = sub.add_parser(
        "serve",
        help="run the long-lived delinquency-analysis service "
             "(JSON-lines over TCP; see repro.service)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8642,
                       help="TCP port (0: pick an ephemeral port; "
                            "default 8642)")
    p_srv.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: CPU count; "
                            "0: run requests on one thread)")
    p_srv.add_argument("--queue-size", type=int, default=64,
                       help="pending-request bound before requests "
                            "are rejected as overloaded (default 64)")
    p_srv.add_argument("--timeout", type=float, default=120.0,
                       help="default per-request timeout, seconds "
                            "(default 120)")
    p_srv.add_argument("--cache-entries", type=int, default=256,
                       help="in-memory result-cache capacity "
                            "(default 256)")
    p_srv.add_argument("--cache-dir", default=None,
                       help="disk cache directory: results in DIR, "
                            "traces and stack-distance profiles in "
                            "DIR/traces and DIR/stackdist (default: "
                            ".repro_cache/service, .repro_cache/traces "
                            "and .repro_cache/stackdist)")
    p_srv.add_argument("--no-disk-cache", action="store_true",
                       help="disable every disk cache tier (results, "
                            "traces, profiles)")
    p_srv.add_argument("--stats", action="store_true",
                       help="dump the final metrics snapshot as JSON "
                            "on shutdown")
    p_srv.set_defaults(func=cmd_serve)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the redundant fast paths "
             "(see repro.fuzz and docs/testing.md)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; the same seed replays the "
                             "same cases (default 0)")
    p_fuzz.add_argument("--cases", type=int, default=None,
                        help="number of cases to generate (default "
                             "200 unless --time is given)")
    p_fuzz.add_argument("--time", type=float, default=None,
                        help="time budget in seconds (combinable "
                             "with --cases; first limit wins)")
    p_fuzz.add_argument("--oracles", default="all",
                        help="comma-separated oracle names (default: "
                             f"all of {', '.join(ORACLES)})")
    p_fuzz.add_argument("--report", default="-",
                        help="where to write the JSON report "
                             "('-': stdout, default)")
    p_fuzz.add_argument("--corpus-dir", default=None,
                        help="write shrunk reproducers of any "
                             "divergence into this directory "
                             "(e.g. tests/corpus)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="report raw failing specs without "
                             "minimizing them")
    p_fuzz.add_argument("--self-check", action="store_true",
                        help="inject an off-by-one into the compiled "
                             "replay and verify the harness catches "
                             "and shrinks it")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    from repro.compiler.driver import COMPILE_ERRORS
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        label = "service error" if exc.code == 3 else "error"
        print(f"repro: {label}: {exc}", file=sys.stderr)
        return exc.code
    except (OSError, *COMPILE_ERRORS) as exc:
        # a missing source file (or any I/O failure) or a program that
        # does not compile is a user error, not a crash: no traceback,
        # diagnostic on stderr, exit 2
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
