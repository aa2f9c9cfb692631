"""Smoke runs of the sweep scripts in ``scripts/``, as a user would start them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, summary",
    [
        # asserts 3.3 <=> semigroup and congruence, and 3.4 => 3.3, per graph
        (
            "corpus_report.py", ("--trees", "8", "--two-node", "4"),
            "7 satisfy the conditions, 1 do not, 9 skipped; ",
        ),
        (
            "verify_identities.py", ("--trees", "8"),
            "verified 13 linking identities, 128 edge determinants, 20 end-node reductions, "
            "231 reduced branches, 183 branch cycles and 183 branch moduli in ",
        ),
        # one digest line per command on fixed file names, then the total; a
        # change to any CLI output changes the digest
        (
            "cli_digest.py", ("--trees", "2", "--two-node", "1"),
            "358 commands, digest 1863a48ad9dc7e2f",
        ),
        # the whole default corpus: all 155 graphs and the indefinite trees
        ("cli_digest.py", (), "4338 commands, digest 0c335b0e36c8f26e"),
    ],
)
def test_sweep_script_runs(script, args, summary):
    done = _run(script, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith(summary)
