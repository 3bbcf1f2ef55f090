"""Benchmark entry point.

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
there (pure Python, nothing to build).  ``--trace 0`` prints every
end-to-end metric named in ``BENCHMARK.json``; ``--trace 1`` runs an
untraced and a traced window and prints every per-layer metric, writing
the spans to ``.perfbench_out/``.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the environment fingerprint and drift diagnostics.

Op counts in the traced ledger (``*.gflop_per_s``, ``*.mb_moved``,
``nn.forward.*_mflop``) are computed from argument shapes, not measured.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json in {ROOT}: {error}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    env = harness.fingerprint()
    calib_start = harness.calibrate()
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds,
                                                 bool(args.trace))
    calib_end = harness.calibrate()
    window = outcome.window
    env.update({
        "calib_start_ms": calib_start,
        "calib_end_ms": calib_end,
        "steal_share": window.steal_share,
        "cpu_share": window.cpu_share,
        "window_s": window.wall,
        "notes": outcome.notes,
        "op_counts": "computed from argument shapes, not measured",
    })
    if args.trace:
        values = dict(outcome.layers)
        values["env.steal_share"] = window.steal_share
        values["env.cpu_share"] = window.cpu_share
        values["env.calib_ms"] = (calib_start + calib_end) / 2
        path = workloads.trace_path(ROOT, args.workload, args.seed)
        outcome.ledger.write(path)
        env["spans"] = str(path.relative_to(ROOT))
    else:
        values = outcome.e2e
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        print(f"perfbench: metrics out of step with BENCHMARK.json: "
              f"missing {missing}, undeclared {extra}", file=sys.stderr)
        return 3
    # A non-finite value is a failed check, printed as 0 to keep the line
    # valid JSON.
    finite = all(math.isfinite(values[name]) for name in units)
    values = {name: values[name] if math.isfinite(values[name]) else 0.0
              for name in units}
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": outcome.failed == 0 and finite,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
