"""``python -m repro`` — run experiments, sweep matrices and manage stores.

The subcommands drive the :class:`~repro.api.Session` runtime:

* ``repro run`` — execute one experiment, from a JSON spec file or inline flags
  (``--spec -`` reads the JSON from stdin)::

      python -m repro run --kind scheduler --wafer tiny --workload tiny --json -
      python -m repro run --spec experiment.json --workers 4 --store sweep.jsonl

* ``repro sweep`` — expand a :class:`~repro.api.SweepSpec` matrix (``base`` /
  ``grid`` / ``zip`` / ``seeds``; a plain JSON array of specs still works) and
  stream it on one shared session.  With ``--results`` every completed cell is
  written through to a result store and a re-invocation resumes where the last
  one stopped::

      python -m repro sweep --spec matrix.json --workers 8 --results out.jsonl
      generate_matrix.py | python -m repro sweep --spec - --results out.jsonl

* ``repro results`` — query (or merge) result stores::

      python -m repro results stats out.jsonl
      python -m repro results tail out.jsonl -n 5
      python -m repro results export out.jsonl --csv matrix.csv
      python -m repro results merge hostA.jsonl hostB.jsonl -o merged.jsonl

* ``repro cache`` — inspect and maintain persistent evaluation-cache stores::

      python -m repro cache stats sweep.jsonl
      python -m repro cache compact sweep.jsonl --max-entries 50000 --max-age 604800

* ``repro profile`` — summarise the span trace a ``--trace`` run wrote: per-stage
  wall-clock breakdown (pricing, cache sync, dispatch, store I/O — worker spans
  merged in) plus an ASCII waterfall of the run::

      python -m repro sweep --spec matrix.json --trace run.jsonl --results out.jsonl
      python -m repro profile run.jsonl

This replaces the per-script argparse plumbing the benchmark and example CLIs used
to re-assemble by hand; those scripts now build a session from the same helpers
(:func:`add_session_arguments` / :func:`session_from_args`).  A store path or file
a store refuses (a sqlite path, one file for both stores, compacting a file of
the other kind) exits with the one-line :class:`~repro.recordlog.StoreError`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Optional

from repro.api.registry import wafer_names, workload_names
from repro.api.results import export_csv, merge_stores, open_result_store, record_status
from repro.api.session import Session, SweepCellError
from repro.api.spec import KINDS, ExperimentSpec
from repro.api.sweep import SweepSpec
from repro.core.evalcache import EvaluationCache, check_eviction_bounds, open_store
from repro.core.retry import RetryPolicy
from repro.recordlog import StoreError

__all__ = [
    "add_session_arguments",
    "compact_store",
    "main",
    "session_from_args",
]


# ------------------------------------------------------------------ shared plumbing
def add_session_arguments(parser: argparse.ArgumentParser) -> None:
    """The runtime flags every session-backed CLI shares."""
    parser.add_argument(
        "--workers", "--parallel", dest="workers", type=int, default=None,
        help="persistent worker-pool size shared by the whole run (-1 = all CPUs)",
    )
    parser.add_argument(
        "--store", "--cache", dest="store", metavar="PATH", default=None,
        help="persistent cache store (.jsonl); warm-starts when it exists",
    )
    parser.add_argument(
        "--compact-on-exit", action="store_true",
        help="fold the store to one row per key when the session closes",
    )
    parser.add_argument(
        "--trace", metavar="OUT", default=None,
        help="write a span trace (JSONL) of the run for `repro profile`",
    )


def session_from_args(args: argparse.Namespace) -> Session:
    """Build the session a CLI run executes on (see :func:`add_session_arguments`)."""
    return Session(
        pool=args.workers,
        store=args.store,
        compact_on_exit=getattr(args, "compact_on_exit", False),
        trace=getattr(args, "trace", None),
    )


def _emit(payload: dict, json_out: Optional[str]) -> None:
    if json_out == "-":
        json.dump(payload, sys.stdout, indent=2)
        print()
    elif json_out:
        with open(json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"metrics written to {json_out}")


# ------------------------------------------------------------------------- run/sweep
def _load_spec_payload(spec_arg: str) -> Any:
    """The parsed JSON of ``--spec`` (``-`` reads stdin, so matrices pipe in)."""
    if spec_arg == "-":
        return json.load(sys.stdin)
    with open(spec_arg, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _specs_from_args(args: argparse.Namespace) -> List[ExperimentSpec]:
    if args.spec:
        payload = _load_spec_payload(args.spec)
        if isinstance(payload, list):
            specs = [ExperimentSpec.from_dict(item) for item in payload]
        else:
            specs = [ExperimentSpec.from_dict(payload)]
    else:
        if not args.wafer and args.kind != "dse":
            raise SystemExit(
                "repro run: name a wafer (--wafer) or a spec file (--spec); "
                f"registered wafers: {', '.join(wafer_names())}"
            )
        if not args.workload:
            raise SystemExit(
                "repro run: name a workload (--workload) or a spec file (--spec); "
                f"known workloads include: {', '.join(workload_names()[:8])}, …"
            )
        specs = [
            ExperimentSpec(
                kind=args.kind,
                wafer=args.wafer,
                workload=args.workload,
                max_tp=args.max_tp,
                population=args.population,
                generations=args.generations,
                seed=args.seed,
            )
        ]
    return specs


def _cmd_run(args: argparse.Namespace) -> int:
    specs = _specs_from_args(args)
    with session_from_args(args) as session:
        results = [session.run(spec) for spec in specs]
    for run in results:
        print(run.summary())
    if len(results) == 1:
        _emit(results[0].to_dict(), args.json)
    else:
        _emit({"runs": [run.to_dict() for run in results]}, args.json)
    return 0 if all(results) else 1


def _retry_from_args(args: argparse.Namespace) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=args.retries,
        backoff_s=args.retry_backoff,
        timeout_s=args.cell_timeout,
    )


def _check_sweep_flags(args: argparse.Namespace) -> None:
    """Out-of-range ``repro sweep`` flags exit with one line, before any work."""
    # Written so that NaN fails too: every comparison with NaN is false.
    bounds = (
        ("--jobs", args.jobs, 1, "at least 1"),
        ("--retries", args.retries, 1, "at least 1"),
        ("--retry-backoff", args.retry_backoff, 0, "non-negative"),
    )
    for flag, value, low, wanted in bounds:
        if value is not None and not value >= low:
            raise SystemExit(f"repro sweep: {flag} must be {wanted}, not {value:g}")
    if args.cell_timeout is not None and not args.cell_timeout > 0:
        raise SystemExit(f"repro sweep: --cell-timeout must be positive, not {args.cell_timeout:g}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_sweep_flags(args)
    sweep = SweepSpec.from_payload(_load_spec_payload(args.spec))
    cells = sweep.expand()
    store = open_result_store(args.results) if args.results else None
    before = store.load() if store is not None else {}
    done_before = set() if args.no_resume else {
        cell_id
        for cell_id, record in before.items()
        if args.skip_failed or record_status(record) != "failed"
    }
    skipped = sum(1 for cell in cells if cell.cell_id in done_before)
    # Keep only the JSON-sized summaries: a RunResult drags its full `details`
    # payload along, and a streamed matrix must not accumulate those in memory.
    ran: List[Any] = []
    failed = 0
    all_ok = True
    with session_from_args(args) as session:
        # A refused store raises here, before any cell runs or any row is counted.
        stream = session.sweep(
            sweep,
            results=store,
            resume=not args.no_resume,
            retry=_retry_from_args(args),
            keep_going=not args.fail_fast,
            skip_failed=args.skip_failed,
            jobs=args.jobs,
        )
        try:
            if args.max_cells is None or args.max_cells > 0:
                for run in stream:
                    print(run.summary())
                    all_ok = all_ok and bool(run)
                    if run.failed:
                        failed += 1
                    ran.append(run.to_dict())
                    if args.max_cells is not None and len(ran) >= args.max_cells:
                        stream.close()
                        break
        except SweepCellError as exc:
            # --fail-fast: the poison cell was already recorded in the store (so a
            # resume knows), but the matrix stops here instead of quarantining on.
            print(f"sweep aborted: {exc}", file=sys.stderr)
            failed += 1
            all_ok = False
        finally:
            run_count = len(ran)
            if store is not None:
                # Count the rows this invocation wrote, not the runs it printed: a
                # stream closed early still records the cells it had in flight.
                after = store.load()
                recorded = [
                    after[cell.cell_id]
                    for cell in cells
                    if cell.cell_id in after and after[cell.cell_id] != before.get(cell.cell_id)
                ]
                run_count = len(recorded)
                failed = sum(1 for record in recorded if record_status(record) == "failed")
                if args.no_resume:
                    # A forced re-run appended fresh rows over the old ones; fold the
                    # store back to one row per cell so its size stays bounded.
                    report = store.compact()
                    folded = report["before"] - report["after"]
                    if folded:
                        print(
                            f"compacted {args.results}: {report['before']} rows -> "
                            f"{report['after']} ({folded} duplicate rows folded)"
                        )
                store.close()
    pending = len(cells) - skipped - run_count
    print(
        f"sweep: {len(cells)} cells — {run_count} run, {failed} failed, "
        f"{skipped} already complete, {pending} pending"
        + (f" (results in {args.results})" if args.results else "")
    )
    _emit(
        {
            "cells": len(cells),
            "skipped": skipped,
            "pending": pending,
            "failed": failed,
            "results": args.results,
            "runs": ran,
        },
        args.json,
    )
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------- results
def _cmd_results_merge(args: argparse.Namespace) -> int:
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"repro results merge: no store at {', '.join(missing)}", file=sys.stderr)
        return 1
    summary = merge_stores(args.paths, args.out)
    statuses = summary["statuses"] or {"ok": 0}
    histogram = ", ".join(f"{status}={count}" for status, count in sorted(statuses.items()))
    print(
        f"merged {summary['stores']} stores -> {args.out}: {summary['cells']} cells "
        f"({summary['duplicates']} duplicates folded, later wins)  [{histogram}]"
    )
    return 0


def _cmd_results(args: argparse.Namespace) -> int:
    if not os.path.exists(args.results_path):
        print(f"no result store at {args.results_path}", file=sys.stderr)
        return 1
    store = open_result_store(args.results_path)
    try:
        if args.results_command == "stats":
            print(json.dumps(store.stats(), indent=2))
        elif args.results_command == "tail":
            for cell_id, record in store.tail(
                args.lines, status=args.status, kind=args.kind
            ):
                result = record.get("result") or {}
                metrics = result.get("metrics") or {}
                bits = [cell_id, result.get("kind", "?"), result.get("label") or "-"]
                if record_status(record) != "ok":
                    error = str(result.get("error") or "").strip()
                    reason = error.splitlines()[-1] if error else "unknown error"
                    bits.append(f"FAILED: {reason}")
                for key in ("throughput", "best_fitness", "best_objective", "points", "records"):
                    if key in metrics:
                        value = metrics[key]
                        formatted = f"{value:.4g}" if isinstance(value, float) else str(value)
                        bits.append(f"{key}={formatted}")
                seconds = record.get("seconds")
                if seconds is not None:
                    bits.append(f"{seconds:.2f}s")
                print("  ".join(bits))
        elif args.results_command == "compact":
            report = store.compact()
            folded = report["before"] - report["after"]
            print(
                f"compacted {args.results_path}: {report['before']} rows -> "
                f"{report['after']} ({report['cells']} cells, "
                f"{folded} duplicate rows folded)"
            )
        else:  # export
            if args.csv == "-":
                rows = export_csv(store, sys.stdout)
            else:
                with open(args.csv, "w", encoding="utf-8", newline="") as handle:
                    rows = export_csv(store, handle)
                print(f"{rows} cells exported to {args.csv}")
    finally:
        store.close()
    return 0


# ---------------------------------------------------------------------------- profile
def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.report import aggregate, render_table, render_waterfall
    from repro.obs.tracefile import read_trace

    try:
        header, spans = read_trace(args.trace_path)
    except OSError as exc:
        raise SystemExit(f"repro profile: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(f"repro profile: {args.trace_path}: {exc}") from exc
    agg = aggregate(spans)
    meta = {
        key: header[key]
        for key in ("fingerprint", "cells")
        if key in header
    }
    print(render_table(agg, meta=meta))
    if not args.no_waterfall:
        print()
        print(render_waterfall(spans, width=args.width, max_rows=args.rows))
    _emit({"trace": args.trace_path, "header": header, **agg}, args.json)
    return 0


# ------------------------------------------------------------------------------ cache
def compact_store(
    path: str,
    max_entries: Optional[int] = None,
    max_age_s: Optional[float] = None,
    namespace: Optional[str] = None,
) -> dict:
    """Compact a cache store in place; returns ``{"loaded": …, "kept": …}``.

    What ``repro cache compact`` runs.  An out-of-range bound exits with one line
    before the store is opened; a file that is not a cache store raises
    :class:`~repro.recordlog.StoreError` and stays as it is.
    """
    try:
        check_eviction_bounds(max_entries, max_age_s)
    except ValueError as exc:
        # The command takes the bounds as --max-entries / --max-age.
        flags = str(exc).replace("max_entries", "--max-entries").replace("max_age_s", "--max-age")
        raise SystemExit(f"repro cache compact: {flags}") from None
    store = open_store(path, namespace=namespace)
    cache = EvaluationCache(max_entries=None, store=store)
    loaded = cache.stats.loaded
    kept = cache.compact(max_entries=max_entries, max_age_s=max_age_s)
    cache.close()
    return {"loaded": loaded, "kept": kept, "evicted": max(0, loaded - kept)}


def _cmd_cache(args: argparse.Namespace) -> int:
    if not os.path.exists(args.store_path):
        print(f"no store at {args.store_path}", file=sys.stderr)
        return 1
    if args.cache_command == "compact":
        report = compact_store(
            args.store_path,
            max_entries=args.max_entries,
            max_age_s=args.max_age,
            namespace=args.namespace,
        )
        print(
            f"compacted {args.store_path}: {report['loaded']} live entries -> "
            f"{report['kept']} kept"
            + (f" ({report['evicted']} evicted)" if report["evicted"] else "")
        )
        return 0
    # stats
    store = open_store(args.store_path, namespace=args.namespace)
    entries = store.load()
    times = [t for t in store.row_times.values() if t > 0]
    payload = {
        "store": args.store_path,
        "entries": len(entries),
        "load_errors": store.load_errors,
        "oldest_priced_at": min(times) if times else None,
        "newest_priced_at": max(times) if times else None,
        "unstamped_rows": len(entries) - len(times),
    }
    store.close()
    print(json.dumps(payload, indent=2))
    return 0


# ------------------------------------------------------------------------------ main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment spec")
    run.add_argument(
        "--spec", metavar="JSON", default=None,
        help="spec file, object or array ('-' reads stdin)",
    )
    run.add_argument("--kind", choices=KINDS, default="scheduler")
    run.add_argument(
        "--wafer", default=None,
        help=f"wafer name ({', '.join(wafer_names())}) — dse builds its own",
    )
    run.add_argument(
        "--workload", default=None,
        help="workload name ('tiny' or any model-zoo model)",
    )
    run.add_argument("--max-tp", type=int, default=0)
    run.add_argument("--population", type=int, default=16, help="GA population")
    run.add_argument("--generations", type=int, default=30, help="GA generations")
    run.add_argument("--seed", type=int, default=0, help="GA RNG seed")
    add_session_arguments(run)
    run.add_argument(
        "--json", metavar="OUT", default=None,
        help="write the RunResult summary as JSON ('-' for stdout)",
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep",
        help="expand a SweepSpec matrix (base/grid/zip/seeds — or a plain spec "
             "array) and stream it on one shared session",
    )
    sweep.add_argument(
        "--spec", metavar="JSON", required=True,
        help="SweepSpec object or spec array ('-' reads stdin)",
    )
    sweep.add_argument(
        "--results", metavar="PATH", default=None,
        help="result store (.jsonl): write each cell through as it "
             "completes; a re-invocation skips cells already present",
    )
    sweep.add_argument(
        "--no-resume", action="store_true",
        help="re-run every cell even when the result store already holds it",
    )
    sweep.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after running N fresh cells (resume later to finish)",
    )
    sweep.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="attempts per cell before it is quarantined as failed (default 3)",
    )
    sweep.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="base backoff between attempts (doubles each retry, jittered "
             "deterministically; default 0)",
    )
    sweep.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per attempt; stragglers are killed and retried",
    )
    sweep.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first quarantined cell instead of the "
             "default keep-going quarantine",
    )
    sweep.add_argument(
        "--skip-failed", action="store_true",
        help="on resume, leave previously failed cells alone instead of "
             "re-attempting them",
    )
    sweep.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run up to N whole cells concurrently (two-level scheduling over "
             "the shared pool); results and resume are identical to --jobs 1",
    )
    add_session_arguments(sweep)
    sweep.add_argument(
        "--json", metavar="OUT", default=None,
        help="write the sweep summary as JSON ('-' for stdout)",
    )
    sweep.set_defaults(func=_cmd_sweep)

    results = sub.add_parser("results", help="query sweep result stores")
    results_sub = results.add_subparsers(dest="results_command", required=True)
    merge = results_sub.add_parser(
        "merge",
        help="fold several stores into one (dedupe by cell_id, later wins), e.g. "
             "stores swept on separate hosts or runs",
    )
    merge.add_argument(
        "paths", nargs="+", metavar="STORE",
        help="input stores (.jsonl); later arguments win duplicate cell_ids",
    )
    merge.add_argument(
        "-o", "--out", required=True, metavar="OUT",
        help="merged store to write (.jsonl; replaced atomically)",
    )
    merge.set_defaults(func=_cmd_results_merge)
    for results_cmd, help_text in (
        ("stats", "cell count, per-kind histogram, time range"),
        ("tail", "the last completed cells, one line each"),
        ("export", "one CSV row per cell with metrics columns"),
        ("compact", "fold duplicate rows in place (dedupe by cell_id, later wins)"),
    ):
        r = results_sub.add_parser(results_cmd, help=help_text)
        r.add_argument("results_path", help="path of the store (.jsonl)")
        if results_cmd == "tail":
            r.add_argument("-n", "--lines", type=int, default=10,
                           help="how many trailing cells to show")
            r.add_argument("--status", default=None, metavar="STATUS",
                           help="only show cells with this status (e.g. failed)")
            r.add_argument("--kind", default=None, metavar="KIND",
                           help="only show cells of this result kind (e.g. dse)")
        if results_cmd == "export":
            r.add_argument("--csv", metavar="OUT", required=True,
                           help="CSV output path ('-' for stdout)")
        r.set_defaults(func=_cmd_results)

    profile = sub.add_parser(
        "profile",
        help="summarise a span trace (--trace writes them): per-stage breakdown "
             "table plus an ASCII waterfall of the run",
    )
    profile.add_argument("trace_path", help="trace file a --trace run wrote (JSONL)")
    profile.add_argument(
        "--width", type=int, default=64, metavar="COLS",
        help="waterfall bar width in columns (default 64)",
    )
    profile.add_argument(
        "--rows", type=int, default=32, metavar="N",
        help="waterfall row budget; longest spans kept when over (default 32)",
    )
    profile.add_argument(
        "--no-waterfall", action="store_true",
        help="print only the stage breakdown table",
    )
    profile.add_argument(
        "--json", metavar="OUT", default=None,
        help="write the aggregated profile as JSON ('-' for stdout)",
    )
    profile.set_defaults(func=_cmd_profile)

    cache = sub.add_parser("cache", help="inspect / compact persistent cache stores")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    for cache_cmd in ("stats", "compact"):
        c = cache_sub.add_parser(cache_cmd)
        c.add_argument("store_path", help="path of the store (.jsonl)")
        c.add_argument("--namespace", default=None,
                       help="override the fingerprint namespace")
        if cache_cmd == "compact":
            c.add_argument("--max-entries", type=int, default=None,
                           help="evict down to this many entries (newest kept)")
            c.add_argument("--max-age", type=float, default=None, metavar="SECONDS",
                           help="evict rows priced longer than this many seconds ago")
        c.set_defaults(func=_cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except StoreError as exc:
        raise SystemExit(str(exc)) from None
    except BrokenPipeError:
        # Streaming output into a closed pager/head is a normal way to stop; exit
        # quietly instead of tracebacking (stdout is gone, so swap in devnull).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
