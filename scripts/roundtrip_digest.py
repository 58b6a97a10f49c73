#!/usr/bin/env python3
"""One digest of every output of the `cli-roundtrip` benchmark workload.

Builds the workload's ops with benchmark/workloads.py (an enumerate --depth 8
per angle, then an export of each class), runs each through `cli.main` in one
process, in a temporary directory, and prints the op count and one SHA-256
over each op's exit code, stdout, stderr and output file bytes, in op order.
File paths are not hashed, so two checkouts that write the same bytes print
the same digest.  Standard library only; sphgeo is imported from this
checkout's src/:

    python scripts/roundtrip_digest.py [--seed 7] [--seconds 15]
"""

import argparse
import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from sphgeo import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=15,
                    help="the benchmark's run length, which sets the op count")
    args = ap.parse_args()

    wl = WORKLOADS["cli-roundtrip"]
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        # the benchmark runner seeds each workload's ops the same way
        ops = wl.ops(random.Random(f"{wl.name}/{args.seed}"), args.seconds, work)
        for op in ops:
            argv = op["argv"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            out_path = Path(argv[argv.index("--out") + 1])
            written = out_path.read_bytes() if out_path.exists() else b""
            for part in (str(code).encode(), out.getvalue().replace(work, "<work>").encode(),
                         err.getvalue().replace(work, "<work>").encode(), written):
                digest.update(len(part).to_bytes(8, "big") + part)
    print(f"{len(ops)} ops, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
