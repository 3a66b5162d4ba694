"""Set-up probe for the library workloads: one fresh interpreter, from
its start to its first successful op.

``python3 perfbench/probe.py <workload> <seed>`` prints one JSON object:
the monotonic clock when the first op finished (``done``) and the seconds
spent making that op's input (``gen_s``), which the caller subtracts.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import inputs
    from repro import DiffOptions, image_diff

    options = DiffOptions(engine="batched")
    if workload == "fig5-strip":
        started = time.monotonic()
        image_a, image_b, _ = inputs.strip_pool(seed, count=1)[0]
        gen_s = time.monotonic() - started
        image_diff(image_a, image_b, options)
        done = time.monotonic()
    elif workload == "unique-rows":
        from repro.service import ShardedDiffService

        with ShardedDiffService(options, workers=2) as service:
            service.ping()
            started = time.monotonic()
            pair = inputs.unique_block(seed, 0, requests=1)[0]
            gen_s = time.monotonic() - started
            service.diff_rows(pair.rows_a, pair.rows_b)
            done = time.monotonic()
    else:
        print(f"no set-up probe for {workload!r}", file=sys.stderr)
        return 2
    print(json.dumps({"done": done, "gen_s": gen_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
