"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-wide --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds the run's details (host, every repetition's raw time, failures).
Details and the Chrome trace are also written under ``.perfbench/``.  The
exit code is non-zero when an output was wrong or the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def provenance() -> dict:
    """Host and program facts recorded with every result (not gated)."""
    from repro import kernels
    from repro.parallel.executor import default_start_method

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "start_method": default_start_method(),
        "kernel_tier": kernels.active_tier(),
        "numpy": kernels.numpy_version(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, spec=None,
        out_dir: Path = OUT_DIR) -> tuple[dict, dict]:
    """One run; returns ``(result, details)``."""
    from perfbench import layers, session
    from perfbench.workloads import END_TO_END, PER_LAYER, SPECS

    spec = spec or SPECS[workload]
    workdir = out_dir / f"work-{os.getpid()}"
    state = session.run_session(spec, seed, seconds, workdir, every_phase=trace)
    try:
        ledger = state.ledger
        details = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "host": provenance(),
            "raw": {
                "setup_s": state.setup_times,
                "fit_s": state.fit_times,
                "apply_s": state.apply_times,
            },
            "serve": state.serve and state.serve.metrics,
            "failures": ledger.failures[:20],
            "checks": ledger.checks,
        }
        if trace:
            values, tracer, checks = layers.traced_run(state)
            ledger.checks.extend(checks)
            details["checks"] = ledger.checks
            details["self_s"] = tracer.self_times()
            trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
            tracer.write_chrome(trace_path)
            details["trace_file"] = str(trace_path.relative_to(out_dir.parent))
            units = PER_LAYER
        else:
            values = state.metrics
            units = END_TO_END
        result = {
            "correct": ledger.correct,
            "attempted": ledger.attempted,
            "failed": len(ledger.failures),
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        }
        (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps({"details": details, "result": result}, indent=1)
        )
        return result, details
    finally:
        state.setup.discard()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import SPECS

    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(SPECS)}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
