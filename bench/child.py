"""One fresh process of the benchmark: import roadnet, then run one command.

    python3 child.py <result.json> probe
    python3 child.py <result.json> cli <roadnet arguments...>

``probe`` stops once roadnet is imported; ``cli`` then runs
``roadnet.cli.main`` exactly as the ``roadnet`` script does.  The result
file holds ``time.monotonic()`` stamps (system-wide on Linux, so the parent
can compare them with its own) and the peak RSS.  The peak is VmHWM, the
high-water mark of this process image: ``getrusage`` would also count the
parent's RSS at fork time, which the kernel carries across exec.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    result_path, mode, args = Path(argv[0]), argv[1], argv[2:]
    import roadnet.cli
    record = {"ready": time.monotonic(), "roadnet": roadnet.cli.__file__}
    if mode not in ("probe", "cli"):
        raise SystemExit(f"unknown mode {mode!r}")
    code = roadnet.cli.main(args) if mode == "cli" else 0
    record["end"] = time.monotonic()
    with open("/proc/self/status", encoding="ascii") as status:
        hwm = next(line for line in status if line.startswith("VmHWM:"))
    record["peak_rss_kb"] = int(hwm.split()[1])
    result_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
