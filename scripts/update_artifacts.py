#!/usr/bin/env python3
"""Regenerate tests/artifacts.json, the digests of the CLI's output bytes.

Run after a change that moves CLI output bytes on purpose, and list every
entry it reports in the change log:

    python scripts/update_artifacts.py

Each reported line names a run of the table in tests/artifact_manifest.py
and the outputs whose digests moved (exit code, stdout, stderr or a file).
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

from artifact_manifest import MANIFEST, build_manifest  # noqa: E402


def moved_outputs(old: dict, new: dict) -> list[str]:
    if not old or not new:
        return ["added" if new else "removed"]
    names = [k for k in ("exit", "stdout", "stderr") if old[k] != new[k]]
    files = {**old["files"], **new["files"]}
    return names + [f for f in files
                    if old["files"].get(f) != new["files"].get(f)]


def main() -> int:
    old = (json.loads(MANIFEST.read_text(encoding="utf-8"))
           if MANIFEST.exists() else {})
    with tempfile.TemporaryDirectory() as work:
        new = build_manifest(Path(work))
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    moved = 0
    for key in {**old, **new}:
        if old.get(key) != new.get(key):
            moved += 1
            print(f"{key}: {', '.join(moved_outputs(old.get(key), new.get(key)))}")
    print(f"{moved} of {len(new)} runs moved; wrote {MANIFEST.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
