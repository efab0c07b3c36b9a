"""Pin the output digests of the workloads for a range of seeds.

Usage, from the root of a source checkout:

    python3 perfbench/pin.py --seeds 0-99 [--workloads nms_crowded,simulate]

Runs each workload twice per seed, requires identical and valid output,
and rewrites the entries of those workloads in ``perfbench/digests.json``.
Re-pin only for a change that is meant to alter output bytes, and say so
where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import gen
import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range, as in 0-99")
    parser.add_argument("--workloads", default=",".join(sorted(gen.MAKERS)),
                        help="comma-separated workload names")
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    cli = run.load_cli()
    table = json.loads(run.DIGESTS.read_text(encoding="utf-8")) if run.DIGESTS.is_file() else {}
    for name in args.workloads.split(","):
        table[name] = {}
        for seed in seeds:
            workdir = run.OUT / f"pin-{name}-{seed}"
            try:
                loop = run.Loop(cli, gen.make(name, seed, workdir), expected=None)
                loop.op()
                loop.op()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if loop.failed or loop.problems:
                print(f"error: {name} seed {seed}: {loop.problems}", file=sys.stderr)
                return 1
            table[name][str(seed)] = loop.expected
        print(f"{name}: pinned seeds {seeds.start}-{seeds.stop - 1}")
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
