"""Rewrite every golden file in this directory from what its run prints now.

Each file is named after one run (see `golden_run` in tests/helpers.py);
the directory listing is the list of runs, so a new run is added by
creating its file, empty, and running this script.  Run it only for a
deliberate change of what splitcheck prints, and record the change in
CHANGES.md; the tests compare every file with its run and print the diff.

    python tests/golden/update.py
"""

from __future__ import annotations

import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

from helpers import GOLDEN_DIR, golden_run, render_golden  # noqa: E402


def main() -> None:
    for path in sorted(GOLDEN_DIR.iterdir()):
        if path.name != "update.py":
            golden_run(path.name)  # a name that does not parse stops the rewrite
            path.write_text(render_golden(path.name), encoding="utf-8", newline="\n")


if __name__ == "__main__":
    main()
