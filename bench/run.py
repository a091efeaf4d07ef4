"""qfidisc benchmark entry point.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It drives the package in-process from
``src/`` through ``qfidisc.cli.main(argv)`` and, where no CLI command
exists, through public functions; gates every output against a
seed-independent reference; and prints the metrics that BENCHMARK.json
names, with the JSON result as the last line.  Workloads, gates and
known-defect probes are in ``workloads.py``; their references in
``references.py``; the per-layer tracer in ``tracing.py``; the scaling of
timings to reference machine speed in ``calibration.py``; the loop and
the metrics in ``harness.py``.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "qfidisc" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no qfidisc sources under {src}; run from the root of a checkout\n")
        return 2
    # Load comes from one process; on a 2-core machine a second BLAS thread
    # was neither faster nor steadier at N=8.  Must precede importing numpy.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
