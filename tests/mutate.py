"""Mutation gate: every mutant in tests/mutants.py must be killed by its named tests.

    python tests/mutate.py

Copies src/ and tests/ to a temporary directory and first runs every named
test there unmutated: they must all pass. Then, one mutant at a time, it
applies the edit, runs only that mutant's tests in a fresh interpreter and
restores the file. Exits 1 if a mutant's old text does not occur exactly
once, if one of its tests passes (the mutant survives), or if a run ends
other than in test failures (a collection error, say). Uses only the
standard library and the test requirements.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def run_tests(tree: Path, node_ids) -> tuple[int, set[str], str]:
    """Exit code, failed node ids and output of pytest on node_ids inside tree."""
    # No bytecode: a restored file must not run from a mutant's cached .pyc.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *node_ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = {line[len("FAILED "):].split(" - ")[0] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed, proc.stdout + proc.stderr


def caught_by(node_id: str, failed: set[str]) -> bool:
    """Whether node_id, or one of its parametrized cases, failed."""
    return any(name == node_id or name.startswith(node_id + "[") for name in failed)


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        named = sorted({node for mutant in MUTANTS for node in mutant.kills})
        code, _, output = run_tests(tree, named)
        if code != 0:
            print(output)
            print(f"the named tests do not all pass unmutated (pytest exit {code})")
            return 1
        for number, mutant in enumerate(MUTANTS, 1):
            label = f"{number:2d} {mutant.path}: {mutant.old.strip().splitlines()[0]!r} -> {mutant.new.strip()!r}"
            path = tree / mutant.path
            original = path.read_text()
            if original.count(mutant.old) != 1:
                problems.append(f"{label}: old text occurs {original.count(mutant.old)} times, not once")
                print("STALE   ", label)
                continue
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                code, failed, output = run_tests(tree, mutant.kills)
            finally:
                path.write_text(original)
            survivors = [node for node in mutant.kills if not caught_by(node, failed)]
            if code not in (0, 1):
                print(output)
                problems.append(f"{label}: pytest exit {code}, not a test failure")
                print("ERROR   ", label)
            elif survivors:
                problems.append(f"{label}: survives {', '.join(survivors)}")
                print("SURVIVED", label)
            else:
                print("killed  ", label)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
