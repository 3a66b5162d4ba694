"""The repository's benchmark: seeded workloads against the code as it
stands, every output checked against a NumPy bitmap XOR.

One run::

    python3 perfbench/run.py --workload pcb-inspect --seed 1 --seconds 15 --trace 0

prints the run's ledger and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  It exits 1 when any output was wrong.

Every workload::

    python3 perfbench/run.py [--seconds S] [--seed K]

runs each workload once untraced and three times traced (seeds
``K..K+2``), each in a fresh process, and prints the end-to-end metrics
(untraced beside traced) and the per-layer ledger as a median and
quartiles over the traced runs.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETAIL = "perfbench-detail "

#: The metric catalogue and run length.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: (name, unit) of the end-to-end metrics.
E2E = tuple((metric["name"], metric["unit"]) for metric in SPEC["end_to_end"])
#: Printed beside them: the complement of ``ops_ok_share``, and bytes on
#: the client socket (TCP workloads only, so a per-layer metric in JSON).
PRINTED = E2E + (("ops_failed_share", "share"), ("wire_bytes_per_row", "B"))
#: Traced runs per workload in every-workload mode; the ledger's
#: quartiles are taken over them.
TRACED_RUNS = 3


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))


def _samples(run: Any, name: str) -> str:
    if name.startswith(("latency", "ops_")):
        return f"{len(run.ops)} ops"
    if name == "setup_s":
        return f"{len(run.setup)} set-ups"
    return f"{run.ok_rows} rows"


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import workloads
    from ledger import LAYER_METRICS

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    run = workloads.WORKLOADS[workload](seed, seconds, trace)
    e2e = workloads.end_to_end(run)
    layers = workloads.layer_metrics(run) if trace else None
    props = workloads.provenance(run)
    host = workloads.host_factor(run)
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  {'traced' if trace else 'untraced'}")
    print("inputs: " + "  ".join(f"{k} {v:.4g}" for k, v in props.items()))
    print(f"host speed: {host:.3f} of the reference host ({len(run.speed)} samples); timings below are stated on it")
    print(f"{'end-to-end':<38}{'value':>14}  {'unit':<7}samples")
    for name, unit in PRINTED:
        value = f"{e2e[name]:14.4f}" if name in e2e else f"{'n/a':>14}"
        print(f"  {name:<36}{value}  {unit:<7}{_samples(run, name)}")
    if layers is not None:
        print(f"{'per-layer (self time per row)':<38}{'value':>14}  unit")
        for name, unit in LAYER_METRICS:
            print(f"  {name:<36}{layers[name]:14.4f}  {unit}")
    failed = sum(1 for op in run.ops if not op.ok)
    detail = {"workload": workload, "trace": trace, "e2e": e2e, "layers": layers, "inputs": props, "host": host}
    print(DETAIL + json.dumps(detail))
    if layers is not None:
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E}
    result = {"correct": run.mismatches == 0, "attempted": len(run.ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if run.mismatches == 0 else 1


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:12.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:12.4f}  [{q1:.4f}, {q3:.4f}]"


def every_workload(seconds: float, seed: int) -> int:
    """Each workload untraced once and traced :data:`TRACED_RUNS` times,
    each run in its own process; prints the combined ledger."""
    _import_program()
    from workloads import WORKLOADS
    from ledger import LAYER_METRICS

    status = 0
    for workload in WORKLOADS:
        details: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
        plan = [(seed, False)] + [(seed + k, True) for k in range(TRACED_RUNS)]
        for run_seed, trace in plan:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(run_seed),
                 "--seconds", str(seconds), "--trace", str(int(trace))],
                cwd=ROOT, capture_output=True, text=True,
            )
            if done.returncode != 0:
                status = 1
                print(f"{workload} seed {run_seed} failed (exit {done.returncode}):\n{done.stdout}{done.stderr}")
            for line in done.stdout.splitlines():
                if line.startswith(DETAIL):
                    details[trace].append(json.loads(line[len(DETAIL):]))
        if not details[False] or not details[True]:
            continue
        untraced, traced = details[False][0], details[True]
        print(f"\n== {workload}  ({seconds:g} s runs; traced: {len(traced)} runs, median [q1, q3])")
        print("inputs: " + "  ".join(f"{k} {v:.4g}" for k, v in untraced["inputs"].items()))
        hosts = ", ".join(f"{d['host']:.3f}" for d in [untraced, *traced])
        print(f"host speed, untraced then traced runs: {hosts} of the reference host")
        print(f"{'end-to-end':<38}{'untraced':>14}{'traced':>14}  unit")
        for name, unit in PRINTED:
            if name in untraced["e2e"]:
                t = statistics.median(d["e2e"][name] for d in traced)
                print(f"  {name:<36}{untraced['e2e'][name]:14.4f}{t:14.4f}  {unit}")
            else:
                print(f"  {name:<36}{'n/a':>14}{'n/a':>14}  {unit}")
        print(f"{'per-layer':<38}{'median':>12}  [q1, q3]")
        for name, unit in LAYER_METRICS:
            print(f"  {name:<36}{_quartiles([d['layers'][name] for d in traced])}  {unit}")
    return status


def main() -> int:
    # A command started in the background of a non-interactive shell
    # inherits SIGINT ignored and would pass that on to the server, which
    # stops on SIGINT; with a handler here, children get the default.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="time inside op calls per station")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = SPEC["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return every_workload(seconds, args.seed)
    return one_run(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
