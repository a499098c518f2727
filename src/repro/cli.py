"""Command-line interface: run XQuery! queries against XML documents.

Examples::

    # run a query file against a document bound to $doc
    python -m repro query.xq --doc doc=data.xml

    # inline query, printing its rewritten plan (or a no-plan note)
    python -m repro -q 'count($doc//item)' --doc doc=data.xml --plan

    # interactive session
    python -m repro --repl --doc auction=auction.xml

Exit codes: 0 — success; 1 — a typed query error (W3C-coded static or
dynamic language error, e.g. a parse failure); 2 — usage or I/O error;
3 — a typed engine-level refusal (``REPR``-registry code: timeout,
overload, circuit open, resource limit, transaction conflict); 4 — an
internal error (an untyped exception escaped the engine — always a
bug worth reporting).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence as Seq

from repro import __version__
from repro.algebra.plan import pretty_plan
from repro.engine import Engine, ExecutionOptions
from repro.errors import XQueryError


def _error_exit(error: XQueryError) -> int:
    """3 for engine-level (REPR-registry) refusals, 1 for language
    errors — scripts can tell "retry later" from "fix the query"."""
    return 3 if (error.code or "").startswith("REPR") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XQuery! — an XML query language with side effects "
        "(EDBT 2006 reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (XQuery! reproduction, EDBT 2006)",
    )
    parser.add_argument(
        "query_file",
        nargs="?",
        help="file containing the query (module) to run",
    )
    parser.add_argument(
        "-q", "--query", help="inline query text (alternative to a file)"
    )
    parser.add_argument(
        "--doc",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="bind $NAME to the document parsed from PATH (repeatable)",
    )
    parser.add_argument(
        "--var",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind $NAME to a string value (repeatable)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind $NAME per execution via the prepared query (like a "
        "prepared-statement parameter: the value is data, never query "
        "text; repeatable)",
    )
    parser.add_argument(
        "--fragment",
        action="append",
        default=[],
        metavar="NAME=XML",
        help="bind $NAME to an inline XML fragment (repeatable)",
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="print the rewritten plan (or a one-line no-plan note) "
        "instead of running the query",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the optimizer's explain report (plans before/after "
        "rewriting, rule firings, purity verdicts) instead of running",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="collect execution statistics and print a summary to stderr",
    )
    parser.add_argument(
        "--semantics",
        choices=["ordered", "nondeterministic", "conflict-detection"],
        default="ordered",
        help="update-application semantics for the implicit top-level snap",
    )
    parser.add_argument(
        "--atomic",
        action="store_true",
        help="roll back snaps whose update list fails mid-application",
    )
    parser.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help="cooperative execution deadline; a query exceeding it fails "
        "with a QueryTimeoutError and its pending updates are discarded",
    )
    parser.add_argument(
        "--indent", action="store_true", help="pretty-print XML output"
    )
    parser.add_argument(
        "--repl", action="store_true", help="start an interactive session"
    )
    parser.add_argument(
        "--load",
        metavar="PATH",
        help="load engine state from a repro database dump (see repro.persist)",
    )
    parser.add_argument(
        "--save",
        metavar="PATH",
        help="save engine state to PATH after the query/session finishes",
    )
    parser.add_argument(
        "--journal",
        metavar="DIR",
        help="run against a durable directory: every snap is write-ahead "
        "journaled to DIR before the query acknowledges, and an existing "
        "directory is recovered before the first query (see "
        "repro.durability; incompatible with --load)",
    )
    return parser


def _split_binding(text: str, what: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise SystemExit(f"invalid {what} binding {text!r}; expected NAME=VALUE")
    return name, value


def make_engine(args: argparse.Namespace):
    trace_sink = lambda message: print(  # noqa: E731
        f"trace: {message}", file=sys.stderr
    )
    if args.journal:
        if args.load:
            raise SystemExit(
                "--journal and --load are mutually exclusive: a durable "
                "directory already carries its own state"
            )
        from repro.durability import DurableEngine
        from repro.durability.manifest import exists as manifest_exists

        if manifest_exists(args.journal):
            # Recovery: engine options live in the recovered state; only
            # the per-invocation knobs are (re)applied.
            engine = DurableEngine(args.journal)
            inner = engine.engine
            inner.default_semantics = type(inner.default_semantics)(
                args.semantics
            )
            inner.evaluator.trace_sink = trace_sink
        else:
            engine = DurableEngine(
                args.journal,
                default_semantics=args.semantics,
                trace_sink=trace_sink,
            )
        for binding in args.doc:
            name, path = _split_binding(binding, "--doc")
            with open(path, encoding="utf-8") as handle:
                engine.load_document(name, handle.read())
        for binding in args.fragment:
            name, xml = _split_binding(binding, "--fragment")
            engine.bind(name, engine.parse_fragment(xml))
        for binding in args.var:
            name, value = _split_binding(binding, "--var")
            engine.bind(name, value)
        return engine
    if args.load:
        from repro.persist import load_engine

        engine = load_engine(args.load)
        engine.default_semantics = type(engine.default_semantics)(args.semantics)
        engine.evaluator.trace_sink = lambda message: print(
            f"trace: {message}", file=sys.stderr
        )
    else:
        engine = Engine(
            default_semantics=args.semantics,
            atomic_snaps=args.atomic,
            trace_sink=lambda message: print(f"trace: {message}", file=sys.stderr),
        )
    for binding in args.doc:
        name, path = _split_binding(binding, "--doc")
        with open(path, encoding="utf-8") as handle:
            engine.load_document(name, handle.read())
    for binding in args.fragment:
        name, xml = _split_binding(binding, "--fragment")
        engine.bind(name, engine.parse_fragment(xml))
    for binding in args.var:
        name, value = _split_binding(binding, "--var")
        engine.bind(name, value)
    return engine


def _params(args: argparse.Namespace) -> dict[str, str] | None:
    bindings = dict(
        _split_binding(binding, "--param") for binding in args.param
    )
    return bindings or None


def _print_stats(result) -> None:
    stats = result.stats
    if stats is None:
        return
    print(f"-- {stats.duration_ms:.3f}ms total", file=sys.stderr)
    for phase, ms in sorted(
        stats.phase_times_ms.items(), key=lambda item: -item[1]
    ):
        print(f"--   {phase}: {ms:.3f}ms", file=sys.stderr)
    print(
        f"-- snaps={stats.snap_count} "
        f"pending_updates={stats.pending_updates_total} "
        f"cache={stats.cache_hits}h/{stats.cache_misses}m",
        file=sys.stderr,
    )
    for name, value in sorted(stats.counters.items()):
        print(f"--   {name}={value}", file=sys.stderr)


def run_query(engine: Engine, query: str, args: argparse.Namespace) -> int:
    if args.explain:
        print(engine.explain(query).render())
        return 0
    if args.plan:
        print(pretty_plan(engine.compile(query)))
        return 0
    prepared = engine.prepare(query)
    result = prepared.execute(
        bindings=_params(args),
        options=ExecutionOptions(
            collect_stats=args.stats, timeout_ms=args.timeout_ms
        ),
    )
    output = result.serialize(indent=args.indent)
    if output:
        print(output)
    if args.stats:
        _print_stats(result)
    return 0


def repl(engine: Engine, args: argparse.Namespace) -> int:
    """A line-oriented interactive session.

    Enter queries terminated by an empty line; ':quit' exits, ':plan on'
    toggles plan printing, ':cache' shows prepared-cache statistics.
    Re-running a query skips the frontend via the prepared-query cache;
    ``--param`` bindings apply to every query of the session.
    """
    print("XQuery! — type a query, finish with an empty line; :quit exits.")
    show_plan = False
    buffer: list[str] = []
    while True:
        try:
            prompt = "xquery! > " if not buffer else "       ... "
            line = input(prompt)
        except EOFError:
            print()
            return 0
        stripped = line.strip()
        if not buffer and stripped in (":q", ":quit", ":exit"):
            return 0
        if not buffer and stripped == ":plan on":
            show_plan = True
            continue
        if not buffer and stripped == ":plan off":
            show_plan = False
            continue
        if not buffer and stripped == ":cache":
            print(engine.prepared_cache)
            continue
        if stripped:
            buffer.append(line)
            continue
        if not buffer:
            continue
        query = "\n".join(buffer)
        buffer = []
        try:
            if show_plan:
                print(pretty_plan(engine.compile(query)))
            result = engine.prepare(query).execute(bindings=_params(args))
            print(result.serialize(indent=args.indent))
        except XQueryError as error:
            print(f"error: {error}", file=sys.stderr)


def recover_main(argv: Seq[str] | None = None) -> int:
    """``repro recover DIR`` — offline crash recovery with a report.

    Opens the durable directory's checkpoint+journal pair, truncates a
    torn tail, replays every committed snap, verifies store invariants
    and prints a recovery report.  Exit status: 0 on success, 1 when the
    journal is corrupt mid-file (:class:`JournalCorruptionError` — the
    store is *not* silently truncated), 2 on I/O errors.
    """
    parser = argparse.ArgumentParser(
        prog="repro recover",
        description="Recover a durable directory (checkpoint + write-ahead "
        "journal) and print a report.",
    )
    parser.add_argument(
        "path", help="durable directory (MANIFEST.json + checkpoint + journal)"
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the store invariant check after replay",
    )
    args = parser.parse_args(argv)
    from repro.durability import recover
    from repro.errors import DurabilityError

    try:
        result = recover(args.path, verify_invariants=not args.no_verify)
    except DurabilityError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.report.render())
    return 0


def _merge_cluster_health(path: str, report: "HealthReport") -> "HealthReport":
    """Fold a supervisor's ``cluster-health.json`` into a local probe.

    The supervisor periodically snapshots its fleet aggregate (one
    member report per replica plus a ``cluster`` section) next to the
    journal.  When present, each member is rebuilt and re-aggregated
    with the local engine's report under the name ``local``, so one
    ``repro health DIR`` shows the whole fleet: worst status wins and
    per-replica lag lands in ``replication.lag_by_replica``.  A
    missing, torn or foreign-format file never fails the probe — the
    local report stands alone.
    """
    import json as _json
    import os as _os

    from repro.cluster.supervisor import _HEALTH_FORMAT, HEALTH_FILE
    from repro.resilience.health import HealthReport, aggregate_reports

    cluster_path = _os.path.join(path, HEALTH_FILE)
    try:
        with open(cluster_path, encoding="utf-8") as handle:
            payload = _json.load(handle)
    except (OSError, ValueError):
        return report
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _HEALTH_FORMAT
    ):
        return report
    fleet = HealthReport.from_dict(payload.get("report", {}))
    # "local" cannot collide: the supervisor names members "primary"
    # and "replica-N".
    named = {"local": report}
    for name, section in fleet.sections.items():
        # Member entries have exactly the {status, sections} shape the
        # aggregator writes; summary sections (cluster, replication)
        # are re-derived or copied below.
        if (
            isinstance(section, dict)
            and set(section) == {"status", "sections"}
        ):
            named[name] = HealthReport.from_dict(section)
    merged = aggregate_reports(named)
    if "cluster" in fleet.sections:
        merged.sections["cluster"] = fleet.sections["cluster"]
    return merged


def health_main(argv: Seq[str] | None = None) -> int:
    """``repro health DIR`` — a readiness probe over a durable directory.

    Opens (recovering if needed) the durable engine at DIR and prints
    its health report: overall status, store size, journal lag
    (records/bytes/unflushed batch commits), circuit-breaker state and
    the last recovery's summary.  When the directory is replicated
    (a cluster supervisor left ``cluster-health.json`` behind), the
    per-replica reports are merged in: each member lands under its own
    name, the fleet's worst status wins, and per-replica lag surfaces
    in a top-level ``replication`` section (``--json`` shows
    ``lag_by_replica``).  Exit status: 0 when HEALTHY or DEGRADED (the
    service is serving, possibly read-only), 1 when UNHEALTHY or the
    directory cannot be opened — probe-friendly for scripts and
    service managers.
    """
    parser = argparse.ArgumentParser(
        prog="repro health",
        description="Open a durable directory and print a health/readiness "
        "report (circuit state, journal lag, last recovery).",
    )
    parser.add_argument(
        "path", help="durable directory (MANIFEST.json + checkpoint + journal)"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the report as JSON instead of text",
    )
    args = parser.parse_args(argv)
    from repro.durability import DurableEngine
    from repro.errors import DurabilityError
    from repro.resilience import ResiliencePolicy

    try:
        with DurableEngine(
            args.path, resilience=ResiliencePolicy()
        ) as engine:
            report = engine.health()
    except (DurabilityError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    report = _merge_cluster_health(args.path, report)
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def main(argv: Seq[str] | None = None) -> int:
    arglist = list(sys.argv[1:] if argv is None else argv)
    if arglist and arglist[0] == "recover":
        return recover_main(arglist[1:])
    if arglist and arglist[0] == "health":
        return health_main(arglist[1:])
    args = build_parser().parse_args(arglist)
    if args.timeout_ms is not None and args.timeout_ms <= 0:
        print("error: --timeout-ms must be positive", file=sys.stderr)
        return 2
    try:
        engine = make_engine(args)
    except XQueryError as error:
        print(f"error: {error}", file=sys.stderr)
        return _error_exit(error)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    def finish(code: int) -> int:
        if args.save and code == 0:
            from repro.persist import save_engine

            save_engine(engine, args.save)
        return code

    try:
        if args.repl:
            return finish(repl(engine, args))
        if args.query is not None:
            query = args.query
        elif args.query_file:
            try:
                with open(args.query_file, encoding="utf-8") as handle:
                    query = handle.read()
            except OSError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        elif args.load or args.save or args.journal:
            # State-only invocation: load/save/recover without a query.
            return finish(0)
        else:
            build_parser().print_usage(sys.stderr)
            print(
                "error: provide a query file, -q, or --repl", file=sys.stderr
            )
            return 2
        try:
            return finish(run_query(engine, query, args))
        except XQueryError as error:
            print(f"error: {error}", file=sys.stderr)
            return _error_exit(error)
        except Exception as error:  # noqa: BLE001 - the contract's edge
            # An untyped exception escaping the engine violates the
            # typed-refusal contract; give it an exit code of its own so
            # monitoring can separate "engine bug" from "bad query".
            print(
                f"internal error: {type(error).__name__}: {error}",
                file=sys.stderr,
            )
            return 4
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
