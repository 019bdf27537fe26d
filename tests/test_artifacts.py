"""Every CLI run of the fixed table reproduces the committed output bytes.

The table, its seeded inputs and the digest rules are in
``artifact_manifest.py``; a change that moves bytes on purpose regenerates
``tests/artifacts.json`` with ``python scripts/update_artifacts.py``.
"""

import json

from artifact_manifest import MANIFEST, build_manifest


def test_cli_artifacts_match_the_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    actual = build_manifest(tmp_path)
    moved = [key for key in {**expected, **actual}
             if expected.get(key) != actual.get(key)]
    assert not moved, f"{len(moved)} runs differ from the manifest: {moved}"
