"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 repobench/run.py --workload engine-widths --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` alternates untraced and traced passes of the same workload and reports
the per-layer metrics, a wall-time decomposition with its residual, and
the tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``repobench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import host
import lib

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=lib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _workload(name: str):
    if name == "engine-widths":
        import engine_widths as module
    elif name == "sweep-ci":
        import sweep_ci as module
    else:
        import serve_mix as module
    return module


def main(argv=None) -> int:
    args = _parse(argv)
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"error: no program source at {source.parent}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".bench_tmp"
    tmp = scratch / f"run-{os.getpid()}-{os.urandom(3).hex()}"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        import repro

        if Path(repro.__file__).resolve().parent != source.parent.resolve():
            print(f"error: imported repro from {repro.__file__}, not this checkout",
                  file=sys.stderr)
            return 2
        # Compile the program's bytecode once, untimed, so every timed
        # set-up starts from the same warm state.
        host.timed_python("import repro.api, repro.cli, repro.serve", ROOT, tmp)
        trace = bool(args.trace)
        tally = lib.Tally()
        out = _workload(args.workload).run(ROOT, tmp, args.seed, args.seconds, trace, tally)
    finally:
        host.stop_descendants()
        shutil.rmtree(tmp, ignore_errors=True)
    peak = host.peak_rss_mb()

    ledger = scratch / "ledger" / (
        f"{args.workload}-seed{args.seed}-s{args.seconds:g}-t{args.trace}.json"
    )
    recorded = lib.ledger_check(ledger, {"counts": out["counts"]})
    tally.op(recorded is None, "work counts repeat across runs at one seed",
             f"recorded {json.dumps(recorded)[:300]}" if recorded else "")

    values = dict(out["values"])
    values.update({
        "peak_rss_mb": peak,
        "host.probe_ms": lib.median(out["probes"]),
        "host.steal_share": out["steal"],
        "host.cpus": float(os.cpu_count() or 0),
    })
    report = dict(out["report"], peak_rss_mb=peak)
    fp = host.fingerprint(ROOT)

    print(f"== repobench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host: cpus={fp['cpus']} numpy={fp['numpy']} python={fp['python']} "
          f"git_rev={fp['git_rev']} probe_ms={values['host.probe_ms']:.4f} "
          f"steal_share={values['host.steal_share']:.4f}")
    print(f"set-up samples (s): {', '.join(f'{s:.4f}' for s in out['setup'])}")
    print(f"pass walls (s): {', '.join(f'{s:.4f}' for s in out['pass_walls'])}")
    print("end-to-end metrics of this workload:")
    for line in lib.report_lines(args.workload, report, out["notes"]):
        print(line)
    print(f"latency: {out['latency_note']}")
    print(f"work counts: {json.dumps(out['counts'], sort_keys=True)[:600]}")
    print("checks:")
    for check, (passed, total) in tally.checks.items():
        print(f"  [{'PASS' if passed == total else 'FAIL'}] {check} ({passed}/{total})")
    for failure in tally.failures:
        print(f"  failure: {failure}")
    print(f"operations: attempted={tally.attempted} failed={tally.failed}")
    if trace:
        print("wall-time decomposition (traced pass, seconds):")
        for name, seconds in out["decomp"]:
            print(f"  {name:<52} {seconds:>10.4f}")
        print(f"tracing overhead: {values['trace.overhead_share']:+.4f} of the untraced wall")
    metrics = lib.select_metrics(args.workload, trace, values)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
