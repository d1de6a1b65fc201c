#!/usr/bin/env python3
"""Run the seeded defects of tests/mutants.txt against the test suite.

Usage: python3 tests/mutants.py [WORKDIR]

The checkout is copied (tracked and untracked files, not `target/`)
into WORKDIR, a fresh temporary directory by default, and each mutant
is applied there by plain text replacement, one at a time:
`cargo test -q --workspace --no-fail-fast` must fail, and its failures
must include the test the mutant names. The checkout itself is never
edited. Exits 1 when a mutant survives, is killed only by other tests,
or names a text that does not occur exactly once in its file; prints
the kill ratio either way.
"""

import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(text):
    mutants, block = [], {}
    for line in text.splitlines() + [""]:
        if line.startswith("#"):
            continue
        if not line.strip():
            if block:
                mutants.append(block)
                block = {}
            continue
        key, _, value = line.partition(": ")
        block[key.strip()] = value
    for m in mutants:
        missing = {"file", "original", "replacement", "killed-by"} - m.keys()
        if missing:
            sys.exit(f"mutant {m} lacks {sorted(missing)}")
    return mutants


def copy_checkout(dest):
    files = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, files):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def failed_tests(output):
    """Names of the failing tests, from the `---- NAME stdout ----` headers."""
    return {m.group(1).split("::")[-1] for m in re.finditer(r"^---- (\S+) stdout ----$", output, re.M)}


def main():
    work = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp(prefix="c4cam-mutants-"))
    work.mkdir(parents=True, exist_ok=True)
    copy_checkout(work)
    mutants = parse((ROOT / "tests/mutants.txt").read_text())
    killed, bad = 0, False
    for i, m in enumerate(mutants, 1):
        path = work / m["file"]
        original = path.read_text()
        n = original.count(m["original"])
        label = f"mutant {i} ({m.get('why', m['file'])})"
        if n != 1:
            print(f"{label}: original text occurs {n} times in {m['file']}")
            bad = True
            continue
        path.write_text(original.replace(m["original"], m["replacement"]))
        start = time.time()
        run = subprocess.run(
            ["cargo", "test", "-q", "--workspace", "--no-fail-fast"],
            cwd=work, capture_output=True, text=True,
        )
        path.write_text(original)
        failed = failed_tests(run.stdout + run.stderr)
        took = time.time() - start
        if run.returncode == 0:
            print(f"{label}: SURVIVED ({took:.0f} s)")
            bad = True
        elif m["killed-by"] not in failed:
            print(f"{label}: killed, but not by {m['killed-by']} (failed: {sorted(failed)}) ({took:.0f} s)")
            killed += 1
            bad = True
        else:
            print(f"{label}: killed by {len(failed)} test(s), {m['killed-by']} among them ({took:.0f} s)")
            killed += 1
    print(f"kill ratio: {killed}/{len(mutants)}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
