"""Seeded inputs and a fixed table of CLI runs whose output bytes are pinned.

``tests/artifacts.json`` maps each run to the SHA-256 of every file it
writes under ``--out``, of its stdout and of its stderr, and to its exit
code.  ``stream.ndjson`` is hashed without its measured ``ms`` field.  Runs
take relative paths from the work directory, and the input, compare and
output paths in stdout and stderr become placeholders, so no digest depends
on where the runs happened.

A change that moves bytes on purpose regenerates the manifest with
``python scripts/update_artifacts.py`` and lists every changed entry.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

# bench/gen.py: conftest and scripts/update_artifacts.py put bench/ on sys.path
from gen import make_grid, write_grid
from roadnet.cli import main

MANIFEST = Path(__file__).resolve().parent / "artifacts.json"

TOP_ID = 2**63 - 1


def _write_lines(path: Path, header: str, pairs) -> None:
    body = "".join(f"{u}\t{v}\n" for u, v in pairs)
    path.write_text(header + body, encoding="ascii")


def make_inputs(work: Path) -> None:
    """Write every input file of the table into ``work``."""
    grid = make_grid(60, 60)
    write_grid(grid, work / "grid60.txt", "60")
    write_grid(make_grid(120, 120), work / "grid120.txt", "120")
    order = np.random.default_rng(61).permutation(grid.arc_count)
    _write_lines(work / "high.txt", "# grid60.txt shuffled, ID -> 2^63-1-ID\n",
                 zip((TOP_ID - grid.from_ids[order]).tolist(),
                     (TOP_ID - grid.to_ids[order]).tolist()))
    (work / "comments.txt").write_text("# only comments\n# FromNodeId\tToNodeId\n",
                                       encoding="ascii")
    _write_lines(work / "ties.txt", "", [(9, 5), (5, 9), (7, 7)])
    arcs = np.random.default_rng(40).integers(0, 40, size=(300, 2)).tolist()
    arcs += arcs[:60] + [[i, i] for i in range(0, 40, 3)]
    _write_lines(work / "multi.txt", "# repeated arcs and self-loops\n", arcs)


# each input, and the input that ``topk --compare`` draws beside it
COMPARE = {"grid60.txt": "grid120.txt", "grid120.txt": "grid60.txt",
           "high.txt": "grid60.txt", "comments.txt": "ties.txt",
           "ties.txt": "multi.txt", "multi.txt": "ties.txt"}
# ``stream --pagerank`` at batch 7 rebuilds the graph every 7 arcs
TINY = {"comments.txt", "ties.txt", "multi.txt"}


def runs() -> list[tuple[str, tuple[str, ...]]]:
    """The command table as (input, args): every command, at --threads 1
    and 2 where it takes them, with the variants that reach each output."""
    table = []
    for name, other in COMPARE.items():
        cmds = [("summary",), ("degrees", "--top", "5"),
                ("scatter", "--sample", "300")]
        for threads in ("1", "2"):
            t = ("--threads", threads)
            cmds += [("pagerank", *t), ("pagerank", "--directed", *t),
                     ("topk", "--by", "pagerank", "--compare", other, *t),
                     ("kmeans", "--k", "3", "--sample", "300", *t),
                     ("stream", "--batch-size", "2500", *t),
                     ("stream", "--batch-size", "2500", "--pagerank", *t)]
        t = ("--threads", "1")
        cmds += [("pagerank", "--max-iter", "3", "--top", "3", *t),
                 ("topk", "--by", "degree", "--compare", other, *t),
                 ("kmeans", "--k", "12", "--sample", "300", *t),
                 ("stream", "--batch-size", "7", "--top", "3", *t)]
        if name in TINY:
            cmds.append(("stream", "--batch-size", "7", "--top", "3",
                         "--pagerank", *t))
        table += [(name, args) for args in cmds]
    return table


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    if path.name != "stream.ndjson":
        return _digest(path.read_bytes())
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        record.pop("ms")
        lines.append(json.dumps(record) + "\n")
    return _digest("".join(lines).encode())


def run_one(work: Path, index: int, name: str, args: tuple[str, ...]) -> dict:
    """Run one table entry from ``work`` and digest what it produced."""
    out = f"out{index}"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([args[0], "--input", name, "--out", out, *args[1:]])

    def scrub(text: str) -> bytes:
        if "--compare" in args:
            text = text.replace(args[args.index("--compare") + 1], "<compare>")
        return text.replace(out, "<out>").replace(name, "<input>").encode()

    files = {p.name: _file_digest(p) for p in sorted((work / out).iterdir())}
    return {"exit": code, "stdout": _digest(scrub(stdout.getvalue())),
            "stderr": _digest(scrub(stderr.getvalue())), "files": files}


def build_manifest(work: Path) -> dict:
    """Make the inputs in ``work`` and run the whole table from there."""
    make_inputs(work)
    here = Path.cwd()
    os.chdir(work)
    try:
        return {" ".join((args[0], name, *args[1:])):
                run_one(work, i, name, args)
                for i, (name, args) in enumerate(runs())}
    finally:
        os.chdir(here)
