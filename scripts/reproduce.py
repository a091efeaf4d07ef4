#!/usr/bin/env python3
"""Reproduce every result file of the paper's examples through the qfidisc CLI.

Writes, under --output-dir (default results/):

* classical_bit_scan.csv, trig_scan.csv: QFI and Bures metric sweeps of
  the diagonal families; the metric takes no step, so four_g_minus_qfi
  reads exactly 0 at every regular point.
* discontinuity_<case>.json: every built-in rank-change point classified
  (second kind for the classical bit, jumps for the trig family, the
  transverse-noise qubit at three evolution times, and the N = 2, 3, 4
  GHZ states at theta = 0, where every block loses rank at once), with
  the prediction 2a from the vanishing eigenvalues' acceleration beside
  the jump measured from the fidelity's second-order coefficient, and
  the effective ranks at and beside theta_bar.
* ghz_qfi_per_time.csv: GHZ QFI per unit time, continuous limit against
  the rank-change value, for N = 1..4.
* cr_experiment_<case>.json: Monte Carlo Cramér-Rao experiments with zero
  replicate variance at every rank-change point (the GHZ states with
  N = 2, 4, 8 included, measured by their parity), and regular points of
  the classical bit and of those GHZ states (theta = 0.1) where the bound
  holds at the usual 1/(M Q) scale.

Run as ``python scripts/reproduce.py [--output-dir DIR]``; exits 1 when
any command fails.
"""

import argparse
import math
import sys
from pathlib import Path

from qfidisc import cli

PI_HALF = repr(math.pi / 2)
RANK_CHANGE_POINTS = [
    ("classical_bit_p0", ["--model", "classical-bit", "--theta-bar", "0"]),
    ("classical_bit_p1", ["--model", "classical-bit", "--theta-bar", "1"]),
    ("trig_theta0", ["--model", "trig", "--theta-bar", "0"]),
    ("trig_theta_pi_half", ["--model", "trig", "--theta-bar", PI_HALF]),
]
TRANSVERSE = ["--model", "transverse-qubit", "--theta-bar", "0", "--kappa", "1.0"]
GHZ = ["--model", "ghz", "--theta-bar", "0", "--kappa", "1.0", "--time", "1.0"]
MC = ["--samples", "100", "--replicates", "1000", "--seed", "1234"]
MC_REGULAR = ["--samples", "10000", "--replicates", "1000", "--seed", "1234"]
GHZ_REGULAR = ["--model", "ghz", "--theta-bar", "0.1", "--kappa", "1.0", "--time", "1.0"]

JOBS = (
    [
        ("classical_bit_scan.csv", ["qfi-scan", "--model", "classical-bit", "--grid", "0.02:0.98:49"]),
        ("trig_scan.csv", ["qfi-scan", "--model", "trig", "--grid", "0.01:1.56:78"]),
    ]
    + [(f"discontinuity_{tag}.json", ["discontinuity"] + args) for tag, args in RANK_CHANGE_POINTS]
    + [
        (f"discontinuity_transverse_t{t}.json", ["discontinuity"] + TRANSVERSE + ["--time", t])
        for t in ("0.5", "1.0", "2.0")
    ]
    + [
        (f"discontinuity_ghz_n{n}_t1.json", ["discontinuity"] + GHZ + ["--qubits", n])
        for n in ("2", "3", "4")
    ]
    + [("ghz_qfi_per_time.csv", ["ghz-scan", "--qubits", "1,2,3,4", "--grid", "0.1:12:60"])]
    + [(f"cr_experiment_{tag}.json", ["mc"] + args + MC) for tag, args in RANK_CHANGE_POINTS]
    + [
        ("cr_experiment_transverse_t1.json", ["mc"] + TRANSVERSE + ["--time", "1.0"] + MC),
        (
            "cr_experiment_classical_bit_regular_p03.json",
            ["mc", "--model", "classical-bit", "--theta-bar", "0.3"] + MC_REGULAR,
        ),
    ]
    + [
        (f"cr_experiment_ghz_n{n}_t1.json", ["mc"] + GHZ + ["--qubits", n] + MC)
        for n in ("2", "4", "8")
    ]
    + [
        (
            f"cr_experiment_ghz_n{n}_regular_t1.json",
            ["mc"] + GHZ_REGULAR + ["--qubits", n] + MC_REGULAR,
        )
        for n in ("2", "4", "8")
    ]
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results", type=Path)
    args = parser.parse_args(argv)
    args.output_dir.mkdir(parents=True, exist_ok=True)

    failed = False
    for filename, command in JOBS:
        out = args.output_dir / filename
        code = cli.main(command + ["--output", str(out)])
        print(f"{out}: exit {code}")
        failed |= code != cli.EXIT_OK
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
