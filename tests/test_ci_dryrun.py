"""``scripts/ci_dryrun.py`` runs each ``run:`` step the way GitHub's default shell does."""

from __future__ import annotations

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "ci_dryrun.py")


@pytest.fixture(scope="module")
def ci_dryrun():
    spec = importlib.util.spec_from_file_location("ci_dryrun", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _status(ci_dryrun, command):
    [(_, _, status, detail)] = ci_dryrun.run_job("j", {"steps": [{"name": "s", "run": command}]}, {})
    return status, detail


def test_a_step_fails_at_its_first_failing_command(ci_dryrun):
    # GitHub runs `run:` blocks under `bash -e`: `false` fails the step even though
    # the block's last command succeeds.
    assert _status(ci_dryrun, "false\ntrue") == ("FAIL", "exit 1")
    assert _status(ci_dryrun, "true\ntrue")[0] == "PASS"


def test_a_step_that_opens_with_a_comment_runs(ci_dryrun):
    assert ci_dryrun.first_executable("# stage the store\n\n  python -V") == "python"
    assert _status(ci_dryrun, "# a comment first\nexit 3") == ("FAIL", "exit 3")
