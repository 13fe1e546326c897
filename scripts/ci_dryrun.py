#!/usr/bin/env python
"""Local dry-run of .github/workflows/ci.yml (an ``act`` substitute).

Parses the workflow, then executes every ``run`` step of every job in-process on this
machine, with the workflow-level ``env`` applied.  Each step runs under ``bash -e``,
as GitHub's default shell does, so a multi-line step fails at its first failing
command.  ``uses:`` steps (checkout, setup-python, artifact upload) are structural on
a local checkout and are skipped; ``run`` steps whose executable is not installed
locally (e.g. ``ruff`` in a hermetic container) are reported as SKIP rather than
failures; a step that opens with a bash keyword or builtin (``for``, ``cd``) runs.
Matrix jobs run once, on the interpreter executing this script.  Parsing the
workflow needs PyYAML.

Exit status is non-zero when any *executed* step fails — the same pass/fail signal the
hosted workflow would give for the locally runnable subset::

    python scripts/ci_dryrun.py            # run every job
    python scripts/ci_dryrun.py --job lint # run one job
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import shutil
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")


def step_command(step: dict) -> str:
    return step.get("run", "").strip()


_ASSIGNMENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")


def first_executable(command: str) -> str:
    """The executable of a step's first command line (for availability checks).

    Blank and comment lines are skipped, and so are leading ``VAR=value`` words —
    both whole assignment lines (``T="$TMP"``) and per-command environment
    prefixes — so steps that open with a comment or stage paths in a shell
    variable first are still probed on their real executable.
    """
    for line in command.splitlines():
        if line.strip().startswith("#"):
            continue
        for token in line.strip().split():
            if _ASSIGNMENT.match(token):
                continue
            return token
    return ""


def runnable(executable: str) -> bool:
    """Whether bash can run ``executable``: installed locally, or a shell keyword or builtin."""
    if executable == "python" or shutil.which(executable) is not None:
        return True
    kind = subprocess.run(
        ["bash", "-c", f"type -t {shlex.quote(executable)}"], capture_output=True, text=True
    ).stdout.strip()
    return kind in ("keyword", "builtin")


def run_job(name: str, job: dict, env: dict) -> list:
    results = []
    for step in job.get("steps", []):
        label = step.get("name") or step.get("uses") or "run"
        command = step_command(step)
        if not command:
            results.append((name, label, "SKIP", "uses-step (structural on a local checkout)"))
            continue
        executable = first_executable(command)
        if not runnable(executable):
            results.append((name, label, "SKIP", f"'{executable}' not installed locally"))
            continue
        if "pip install" in command:
            results.append((name, label, "SKIP", "no package installs in the dry-run"))
            continue
        start = time.perf_counter()
        proc = subprocess.run(
            ["bash", "-e", "-c", command],
            cwd=REPO_ROOT,
            env={**os.environ, **env},
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode == 0:
            results.append((name, label, "PASS", f"{elapsed:.1f}s"))
        elif step.get("continue-on-error"):
            results.append((name, label, "WARN", f"exit {proc.returncode} (continue-on-error)"))
        else:
            results.append((name, label, "FAIL", f"exit {proc.returncode}"))
            tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-15:])
            print(f"--- output of failed step '{label}' ---\n{tail}\n---", file=sys.stderr)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--job", default=None, help="run only this job id")
    parser.add_argument("--workflow", default=WORKFLOW, help="workflow file to dry-run")
    args = parser.parse_args(argv)

    import yaml  # here, not at the top: the tests import this module without PyYAML

    with open(args.workflow, "r", encoding="utf-8") as handle:
        workflow = yaml.safe_load(handle)

    env = {str(k): str(v) for k, v in (workflow.get("env") or {}).items()}
    jobs = workflow.get("jobs", {})
    if args.job:
        if args.job not in jobs:
            print(f"no job '{args.job}' in {args.workflow} (have: {', '.join(jobs)})")
            return 2
        jobs = {args.job: jobs[args.job]}

    all_results = []
    for name, job in jobs.items():
        all_results.extend(run_job(name, job, env))

    width = max(len(f"{job}: {label}") for job, label, _, _ in all_results)
    failed = 0
    for job, label, status, detail in all_results:
        print(f"  {f'{job}: {label}':<{width}}  {status:<4}  {detail}")
        failed += status == "FAIL"
    executed = sum(1 for r in all_results if r[2] in ("PASS", "FAIL", "WARN"))
    print(
        f"\n{len(all_results)} steps: {executed} executed, "
        f"{len(all_results) - executed} skipped, {failed} failed"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
