import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import count_reads
from qfidisc import cli, discontinuity, estimation, models, quantum
from qfidisc.exceptions import (
    BoundarySolutionWarning,
    DegenerateModelError,
    DomainError,
    InvalidInputError,
    NumericalError,
    StepSizeError,
)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestGridParsing:
    def test_linear(self):
        grid = cli.parse_grid("0.0:1.0:5")
        assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_log(self):
        grid = cli.parse_grid("0.1:10:3:log")
        assert np.allclose(grid, [0.1, 1.0, 10.0])

    @given(
        start=st.floats(1e-300, 1e300),
        stop=st.floats(1e-300, 1e300),
        points=st.integers(2, 7),
    )
    def test_log_grid_ends_at_its_endpoints(self, start, stop, points):
        grid = cli.parse_grid(f"{start!r}:{stop!r}:{points}:log").tolist()
        assert (len(grid), grid[0], grid[-1]) == (points, start, stop)

    def test_ghz_scan_prints_the_log_grid_endpoints(self, capsys):
        # numpy's 10 ** log10(0.3) is 0.29999999999999993.
        code, stdout, _ = run_cli(["ghz-scan", "--qubits", "2", "--grid", "0.3:2.3:2:log"], capsys)
        assert code == 0
        assert [float(row.split(",")[1]) for row in stdout.splitlines()[1:]] == [0.3, 2.3]

    def test_too_few_points(self):
        with pytest.raises(cli._UsageError):
            cli.parse_grid("0:1:1")

    def test_malformed(self):
        with pytest.raises(cli._UsageError):
            cli.parse_grid("0:1")

    @pytest.mark.parametrize(
        "argv",
        [["ghz-scan", "--qubits", "1"], ["qfi-scan", "--model", "transverse-qubit"]],
        ids=["ghz-scan", "qfi-scan"],
    )
    @pytest.mark.parametrize("points", [2**32 + 1, 100_000_000_000])
    def test_more_than_2_32_points_are_a_usage_error_before_any_allocation(
        self, monkeypatch, capsys, argv, points
    ):
        # 10^11 points once ended in numpy's _ArrayMemoryError for 745 GiB.
        def refused(*args, **kwargs):
            raise AssertionError("allocated a grid past the cap")

        monkeypatch.setattr(np, "linspace", refused)
        code, stdout, err = run_cli([*argv, "--grid", f"0.1:0.2:{points}"], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"usage error: grid of {points} points exceeds 2**32\n"

    def test_negative_start_as_separate_argument(self, capsys):
        code, stdout, _ = run_cli(
            ["qfi-scan", "--model", "transverse-qubit", "--grid", "-0.4:0.4:3"], capsys
        )
        assert code == 0
        thetas = [float(row.split(",")[0]) for row in stdout.splitlines()[1:]]
        assert thetas == [-0.4, 0.0, 0.4]
        # ghz-scan reads the same value and rejects negative times as a
        # domain error, not as a usage error.
        code, _, err = run_cli(["ghz-scan", "--qubits", "1", "--grid", "-1:1:3"], capsys)
        assert code == 2
        assert err.startswith("domain error")


class TestQfiScan:
    def test_trig_scan_values(self, tmp_path, capsys):
        out = tmp_path / "trig.csv"
        code, _, _ = run_cli(
            ["qfi-scan", "--model", "trig", "--grid", "0.1:1.4:14", "--output", str(out)],
            capsys,
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 14
        assert list(rows[0]) == ["theta", "qfi", "bures_metric", "four_g_minus_qfi"]
        for row in rows:
            assert abs(float(row["qfi"]) - 4.0) < 1e-9
            assert abs(float(row["bures_metric"]) - 1.0) < 1e-3
            assert float(row["four_g_minus_qfi"]) == 0.0

    def test_classical_bit_scan_values(self, tmp_path, capsys):
        out = tmp_path / "bit.csv"
        code, _, _ = run_cli(
            ["qfi-scan", "--model", "classical-bit", "--grid", "0.1:0.9:9", "--output", str(out)],
            capsys,
        )
        assert code == 0
        for row in read_csv(out):
            p = float(row["theta"])
            assert float(row["qfi"]) == pytest.approx(1.0 / (p * (1.0 - p)), rel=1e-9)
        mid = [r for r in read_csv(out) if abs(float(r["theta"]) - 0.5) < 1e-12][0]
        assert abs(float(mid["four_g_minus_qfi"])) < 1e-3

    def test_classical_bit_metric_diverges_at_the_edges(self, capsys):
        # The vanishing probability moves at first order at p = 0 and 1.
        code, stdout, _ = run_cli(["qfi-scan", "--model", "classical-bit", "--grid", "0:1:3"], capsys)
        assert code == 0
        rows = list(csv.DictReader(stdout.splitlines()))
        assert [(r["qfi"], r["bures_metric"], r["four_g_minus_qfi"]) for r in rows] == [
            ("1", "inf", "inf"), ("4", "1", "0"), ("1", "inf", "inf")
        ]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["qfi-scan", "--model", "trig", "--grid", "0.2:1.2:6"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(first)], capsys)[0] == 0
        assert run_cli(args + ["--output", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_lf_line_endings_and_parseable(self, tmp_path, capsys):
        out = tmp_path / "fmt.csv"
        run_cli(
            ["qfi-scan", "--model", "classical-bit", "--grid", "0.3:0.7:3", "--output", str(out)],
            capsys,
        )
        raw = out.read_bytes()
        assert b"\r" not in raw
        rows = read_csv(out)
        for row in rows:
            for col in ("theta", "qfi", "bures_metric", "four_g_minus_qfi"):
                float(row[col])  # 17-significant-digit numbers parse cleanly

    def test_out_of_domain_rows_marked(self, tmp_path, capsys):
        out = tmp_path / "dom.csv"
        code, _, _ = run_cli(
            [
                "qfi-scan",
                "--model",
                "transverse-qubit",
                "--grid",
                "0.3:0.6:4",
                "--kappa",
                "1.0",
                "--output",
                str(out),
            ],
            capsys,
        )
        assert code == 2
        rows = read_csv(out)
        good = [r for r in rows if not r["qfi"].startswith("error")]
        bad = [r for r in rows if r["qfi"].startswith("error")]
        assert good and bad
        assert all("DomainError" in r["qfi"] for r in bad)

    def test_ghz_beyond_dense_cap(self, capsys):
        # N = 16 is past the 2^N matrix cap of 10; the scan runs on blocks,
        # and its theta = 0 row reports the continuous metric.
        code, stdout, _ = run_cli(
            ["qfi-scan", "--model", "ghz", "--qubits", "16", "--grid=-0.2:0.2:3"], capsys
        )
        assert code == 0
        assert "error(" not in stdout
        zero = [r for r in csv.DictReader(stdout.splitlines()) if float(r["theta"]) == 0.0][0]
        assert 4.0 * float(zero["bures_metric"]) == pytest.approx(
            models.ghz_qfi_continuous(16, 1.0, 1.0), rel=1e-10
        )
        # The jump of the paper: 4g - Q at the rank change.
        assert float(zero["four_g_minus_qfi"]) == pytest.approx(
            models.ghz_qfi_continuous(16, 1.0, 1.0) - models.ghz_qfi_discontinuous(16, 1.0, 1.0),
            rel=1e-10,
        )

    def test_json_format(self, capsys):
        code, stdout, _ = run_cli(
            ["qfi-scan", "--model", "trig", "--grid", "0.3:0.9:3", "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(stdout)
        assert len(rows) == 3 and abs(rows[0]["qfi"] - 4.0) < 1e-9

    def test_usage_error_exit_code(self, capsys):
        code, _, err = run_cli(["qfi-scan", "--model", "trig", "--grid", "bad"], capsys)
        assert code == 1
        assert "usage error" in err


class TestDiscontinuityCommand:
    def test_classical_bit_second_kind(self, capsys):
        code, stdout, _ = run_cli(
            ["discontinuity", "--model", "classical-bit", "--theta-bar", "0"], capsys
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["kind"] == "second-kind"
        assert payload["qfi_limit"] == payload["delta_q_measured"] == "inf"
        assert "qfi_samples" not in payload

    def test_trig_upper_endpoint_jump(self, capsys):
        code, stdout, _ = run_cli(
            ["discontinuity", "--model", "trig", "--theta-bar", str(math.pi / 2)], capsys
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["kind"] == "jump"
        assert payload["delta_q_measured"] == pytest.approx(4.0, rel=1e-3)

    def test_transverse_jump(self, capsys):
        code, stdout, _ = run_cli(
            [
                "discontinuity",
                "--model",
                "transverse-qubit",
                "--theta-bar",
                "0",
                "--kappa",
                "1.0",
                "--time",
                "1.0",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["kind"] == "jump"
        expected = 2.0 * math.exp(-1.0) - 4.0 * math.exp(-1.0) * math.sinh(0.5) ** 2
        assert payload["delta_q_measured"] == pytest.approx(expected, rel=1e-10)
        assert payload["delta_q_predicted"] == pytest.approx(expected, rel=1e-10)
        # The evidence behind the verdict: the pure state's rank rises beside it.
        assert (payload["rank_at_bar"], payload["rank_beside"]) == (1, 2)

    @pytest.mark.parametrize("n", [2, 12, 24])
    def test_ghz_up_to_the_block_cap(self, capsys, n):
        # Every block loses rank at theta = 0; the blocks classify past the
        # dense cap of N = 10, up to N = 24, with the closed-form jump.
        code, stdout, _ = run_cli(
            ["discontinuity", "--model", "ghz", "--qubits", str(n), "--theta-bar", "0"], capsys
        )
        assert code == 0
        payload = json.loads(stdout)
        jump = models.ghz_qfi_continuous(n, 1.0, 1.0) - models.ghz_qfi_discontinuous(n, 1.0, 1.0)
        assert payload["kind"] == "jump"
        assert payload["delta_q_measured"] == pytest.approx(jump, rel=1e-10)
        assert payload["qfi_limit"] == pytest.approx(models.ghz_qfi_continuous(n, 1.0, 1.0), rel=1e-10)

    def test_transverse_jump_at_small_kappa(self, capsys):
        # The domain (-0.005, 0.005) holds no fixed limit step; the jump
        # 4g - Q needs none.
        code, stdout, _ = run_cli(
            ["discontinuity", "--model", "transverse-qubit", "--kappa", "0.01", "--theta-bar", "0"],
            capsys,
        )
        assert code == 0
        payload = json.loads(stdout)
        jump = models.ghz_qfi_continuous(1, 0.01, 1.0) - models.ghz_qfi_discontinuous(1, 0.01, 1.0)
        assert payload["kind"] == "jump"
        assert payload["delta_q_measured"] == pytest.approx(jump, rel=1e-8)

    @pytest.mark.parametrize(
        "options",
        [
            ["--model", "classical-bit", "--theta-bar", "0"],
            ["--model", "transverse-qubit", "--theta-bar", "0"],
        ],
    )
    def test_json_keys(self, capsys, options):
        code, stdout, _ = run_cli(["discontinuity", *options], capsys)
        assert code == 0
        assert list(json.loads(stdout)) == [
            "theta_bar", "speed", "acceleration", "kind", "delta_q_predicted",
            "delta_q_measured", "qfi_at_bar", "qfi_limit", "rank_at_bar", "rank_beside",
        ]

    @pytest.mark.parametrize(
        "options",
        [
            ["--model", "classical-bit", "--theta-bar", "0"],
            ["--model", "classical-bit", "--theta-bar", "1"],
            ["--model", "trig", "--theta-bar", "0"],
            ["--model", "trig", f"--theta-bar={math.pi / 2!r}"],
            ["--model", "transverse-qubit", "--theta-bar", "0"],
            ["--model", "transverse-qubit", "--kappa", "1e-3", "--theta-bar", "0"],
        ] + [["--model", "ghz", "--qubits", str(n), "--theta-bar", "0"] for n in (2, 3, 4, 8)],
        ids=["classical-bit-0", "classical-bit-1", "trig-0", "trig-pi-half", "transverse-qubit-0",
             "transverse-qubit-kappa-1e-3", "ghz-2", "ghz-3", "ghz-4", "ghz-8"],
    )
    def test_is_the_indented_json_of_the_report(self, capsys, options):
        # Every built-in rank-change point, second-kind "inf" fields included.
        args = ["discontinuity", *options]
        code, stdout, _ = run_cli(args, capsys)
        parsed = cli._parser().parse_args(args)
        report = discontinuity.classify(cli._build_model(parsed), parsed.theta_bar)
        assert code == 0
        assert stdout == json.dumps(report.to_json(), indent=2) + "\n"

    def test_regular_point_distinct_exit(self, capsys):
        code, _, err = run_cli(
            ["discontinuity", "--model", "classical-bit", "--theta-bar", "0.5"], capsys
        )
        assert code == 2
        assert "not a discontinuity" in err


class TestGhzScan:
    def test_schema_and_zero_time_rows(self, tmp_path, capsys):
        out = tmp_path / "ghz.csv"
        code, _, _ = run_cli(
            ["ghz-scan", "--qubits", "1,2", "--grid", "0:2:5", "--output", str(out)], capsys
        )
        assert code == 0
        rows = read_csv(out)
        assert list(rows[0]) == [
            "N",
            "t",
            "qfi_continuous",
            "qfi_discontinuous",
            "qfi_continuous_per_t",
            "qfi_discontinuous_per_t",
        ]
        assert len(rows) == 10
        for row in rows:
            if float(row["t"]) == 0.0:
                assert float(row["qfi_continuous"]) == 0.0
                assert float(row["qfi_discontinuous"]) == 0.0

    def test_known_single_qubit_values(self, capsys):
        code, stdout, _ = run_cli(
            ["ghz-scan", "--qubits", "1", "--grid", "1:1:2", "--format", "json"], capsys
        )
        assert code == 0
        rows = json.loads(stdout)
        assert rows[0]["qfi_discontinuous"] == pytest.approx(0.399576, abs=1e-6)
        assert rows[0]["qfi_continuous"] == pytest.approx(0.735759, abs=1e-6)

    def test_long_time_behaviour_diverges_between_forms(self, capsys):
        # Total information keeps growing linearly while the rank-change
        # value saturates, so the per-time columns separate at large t.
        code, stdout, _ = run_cli(
            ["ghz-scan", "--qubits", "2", "--grid", "5:20:4", "--format", "json"], capsys
        )
        rows = json.loads(stdout)
        cont = [r["qfi_continuous"] for r in rows]
        disc = [r["qfi_discontinuous"] for r in rows]
        slope = (cont[-1] - cont[-2]) / 5.0
        assert slope == pytest.approx(2.0 * 2 / 1.0**2, rel=1e-2)  # 2N/kappa^2
        assert disc[-1] - disc[-2] < 1e-3
        assert rows[-1]["qfi_discontinuous_per_t"] < rows[0]["qfi_discontinuous_per_t"]

    @pytest.mark.parametrize("qubits", ["1,x", "1,,2", "2,", ",3"])
    def test_bad_qubit_list(self, capsys, qubits):
        # An empty entry was once dropped, and the scan ran on the rest.
        code, out, err = run_cli(["ghz-scan", "--qubits", qubits, "--grid", "0:1:3"], capsys)
        assert (code, out, err) == (1, "", f"usage error: bad --qubits list {qubits!r}\n")

    def test_qubit_counts_whose_binomials_overflow_a_float(self, capsys):
        # binomial(1100, m) leaves the floats from m ~ 480; the block sum
        # once ended in a traceback (OverflowError, exit 1).
        code, stdout, err = run_cli(["ghz-scan", "--qubits", "1100", "--grid", "0.5:1:2"], capsys)
        assert (code, err) == (0, "")
        for row in csv.DictReader(stdout.splitlines()):
            qd, qc = float(row["qfi_discontinuous"]), float(row["qfi_continuous"])
            assert math.isfinite(qd) and 0.0 < qd < qc


class TestQubitCounts:
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_ghz_scan_rejects_nonpositive_counts(self, capsys, n):
        code, out, err = run_cli(["ghz-scan", f"--qubits={n}", "--grid", "0.5:1:2"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"domain error: n_qubits={n} outside [1, inf]\n"

    @pytest.mark.parametrize("n", ["0", "25"])
    @pytest.mark.parametrize(
        "command",
        [
            ["mc", "--theta-bar", "0", "--replicates", "5"],
            ["discontinuity", "--theta-bar", "0"],
            ["qfi-scan", "--grid", "0:0.2:3"],
        ],
        ids=["mc", "discontinuity", "qfi-scan"],
    )
    def test_model_commands_reject_counts_before_any_work(self, capsys, command, n):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(
                [command[0], "--model", "ghz", "--qubits", n, *command[1:]], capsys
            )
        assert code == 2
        assert out == ""
        assert err == f"domain error: n_qubits={n} outside [1, 24]\n"
        assert not [w for w in caught if issubclass(w.category, BoundarySolutionWarning)]


class TestNonFiniteInputs:
    """NaN and infinite parameters are refused where they enter, NaN included:
    model parameters as domain errors, grid endpoints as usage errors."""

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
    def test_ghz_scan_rejects_kappa(self, capsys, kappa):
        code, out, err = run_cli(
            ["ghz-scan", "--qubits", "2", f"--kappa={kappa}", "--grid=0.1:0.2:2"], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"domain error: kappa={float(kappa)} must be positive and finite\n"

    @pytest.mark.parametrize("option", ["--kappa", "--time"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command",
        [
            ["qfi-scan", "--grid", "0.1:0.2:2"],
            ["discontinuity", "--theta-bar", "0"],
            ["mc", "--theta-bar", "0", "--replicates", "5"],
        ],
        ids=["qfi-scan", "discontinuity", "mc"],
    )
    def test_model_commands_reject_rates(self, capsys, command, option, value):
        code, out, err = run_cli(
            [command[0], "--model", "ghz", "--qubits", "2", option, value, *command[1:]], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("domain error: ") and "finite" in err

    @pytest.mark.parametrize("kappa", ["1e300", "1e-170"])
    @pytest.mark.parametrize(
        "command",
        [
            ["qfi-scan", "--model", "ghz", "--grid", "0:0.1:2"],
            ["ghz-scan", "--grid", "0.1:0.2:2"],
            ["discontinuity", "--model", "ghz", "--theta-bar", "0"],
            ["mc", "--model", "ghz", "--theta-bar", "0", "--replicates", "5"],
        ],
        ids=["qfi-scan", "ghz-scan", "discontinuity", "mc"],
    )
    def test_kappa_whose_square_leaves_the_floats_is_a_domain_error(self, capsys, command, kappa):
        # kappa^2 overflows (or underflows to 0) in xi and the closed-form
        # QFIs, which once ended in an OverflowError or ZeroDivisionError.
        code, out, err = run_cli([*command, "--qubits", "1", "--kappa", kappa], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"domain error: kappa={float(kappa)} out of range: "
            "kappa**2 is not a positive finite float\n"
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["qfi-scan", "--model", "ghz", "--grid", "0:0.1:2"],
            ["ghz-scan", "--grid"],
            ["discontinuity", "--model", "ghz", "--theta-bar", "0"],
            ["mc", "--model", "ghz", "--theta-bar", "0", "--replicates", "5"],
            ["mc", "--model", "ghz", "--theta-bar", "0.1", "--replicates", "5"],
        ],
        ids=["qfi-scan", "ghz-scan", "discontinuity", "mc-rank-change", "mc-regular"],
    )
    def test_time_whose_square_leaves_the_floats_is_a_domain_error(self, capsys, command):
        # t^2 overflows in the blocks' second derivatives, which once ended
        # in an OverflowError; ghz-scan takes its times from the grid.
        def run(t):
            time = [f"{t}:{t}:2"] if command[0] == "ghz-scan" else ["--time", t]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundarySolutionWarning)
                return run_cli([*command, *time, "--qubits", "2"], capsys)

        assert run("1e300") == (
            2, "", "domain error: t=1e+300 out of range: t**2 is not a finite float\n"
        )
        code, out, _ = run("1e150")
        assert code == 0 and out

    @pytest.mark.parametrize("command", ["discontinuity", "mc"])
    @pytest.mark.parametrize("model", ["ghz", "trig"])
    def test_nan_theta_bar_is_a_domain_error(self, capsys, command, model):
        code, out, err = run_cli(
            [command, "--model", model, "--qubits", "2", "--theta-bar", "nan"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("domain error: ")

    @pytest.mark.parametrize("grid", ["nan:0.1:2", "0.1:nan:2", "0.1:inf:2", "-inf:0.1:2"])
    @pytest.mark.parametrize("command", ["qfi-scan", "ghz-scan"])
    def test_grid_endpoints_must_be_finite(self, capsys, command, grid):
        model = ["--model", "ghz"] if command == "qfi-scan" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            code, out, err = run_cli([command, *model, "--qubits", "2", f"--grid={grid}"], capsys)
        assert (code, out) == (1, "")
        assert err == f"usage error: bad grid {grid!r}: endpoints must be finite\n"

    LARGEST_TIME = [
        "--model", "transverse-qubit", "--kappa", "1e-3", "--time", "1.3407807929942596e154"
    ]

    def test_discontinuity_at_the_largest_time(self, capsys):
        # t^2 is finite but t^2 S is not: the blocks' second derivatives
        # were NaN at theta = 0, passed the Hermiticity check, and the
        # jump read as "not a discontinuity" (exit 2).
        argv = ["discontinuity", *self.LARGEST_TIME, "--theta-bar", "0"]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        report = json.loads(stdout)
        assert (report["kind"], report["rank_at_bar"], report["rank_beside"]) == ("jump", 1, 2)
        assert report["qfi_limit"] == pytest.approx(
            models.ghz_qfi_continuous(1, 1e-3, 1.3407807929942596e154), rel=1e-12
        )

    def test_mc_notes_the_rank_change_at_the_largest_time(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundarySolutionWarning)
            code, stdout, _ = run_cli(
                ["mc", *self.LARGEST_TIME, "--theta-bar", "0", "--replicates", "5"], capsys
            )
        assert code == 0
        # The block's second derivative reaches 1.3e157 at this t, so the
        # speed bound 1e-6 sqrt(lambda_max |A''|) = 3.7e72 dwarfs |A'| = 500,
        # and Q = 1e6 reads as zero in the units of the block's derivatives.
        report = json.loads(stdout)
        assert report["cr_bound"] == "inf"
        assert report["notes"].startswith(
            "QFI = 1e+06 at theta_true; Cramér-Rao bound not applicable; "
            "rank changes at theta_true=0.0 (effective rank 1 vs 2 nearby)"
        )

    def test_library_entry_points_reject_nan(self):
        nan = float("nan")
        for kwargs in ({"kappa": nan}, {"t": nan}, {"kappa": math.inf}, {"t": math.inf}):
            with pytest.raises(DomainError):
                models.make_model("ghz", n_qubits=2, **kwargs)
        for theta, kappa, t in ((nan, 1.0, 1.0), (0.1, nan, 1.0), (0.1, 1.0, nan)):
            with pytest.raises(DomainError):
                models.ghz_coefficients(theta, kappa, t)
            with pytest.raises(DomainError):
                models.ghz_block_arrays(2, theta, kappa, t)
        with pytest.raises(DomainError):
            models.lindblad_integrate(1, 0.1, 1.0, nan)


class TestMcCommand:
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_sample_count_below_one_is_a_usage_error(self, capsys, count):
        code, out, err = run_cli(
            ["mc", "--model", "classical-bit", "--theta-bar", "0.3", "--samples", count], capsys
        )
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --samples: must be >= 1, got {count}\n"

    @pytest.mark.parametrize("theta", ["0", "0.3"])  # a point mass and a sampled law
    def test_negative_seed_is_a_usage_error(self, capsys, theta):
        code, out, err = run_cli(
            ["mc", "--model", "classical-bit", "--theta-bar", theta, "--seed", "-1"], capsys
        )
        assert (code, out) == (1, "")
        assert err == "usage error: argument --seed: must be >= 0, got -1\n"

    @pytest.mark.parametrize("theta", ["0", "0.3"])  # a point mass and a sampled law
    def test_sample_count_past_a_c_long_is_a_domain_error(self, capsys, theta):
        code, out, err = run_cli(
            ["mc", "--model", "classical-bit", "--theta-bar", theta, "--replicates", "2",
             "--samples", str(10**20)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("domain error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("theta", ["0", "0.3"])  # a point mass and a sampled law
    def test_replicate_count_past_2_32_is_a_domain_error(self, capsys, theta):
        # 5e9 replicates would allocate 40 GB of estimates; refused first.
        code, out, err = run_cli(
            ["mc", "--model", "classical-bit", "--theta-bar", theta,
             "--replicates", "5000000000"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("domain error: n_replicates=5000000000 exceeds 2**32")
        assert "Traceback" not in err

    def test_replicate_count_below_two_is_a_usage_error(self, capsys):
        code, out, err = run_cli(
            ["mc", "--model", "classical-bit", "--theta-bar", "0.3", "--replicates", "1"], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage error: need >= 2 replicates")

    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_rank_deficient_point_whose_rank_does_not_rise_has_no_rank_note(self, capsys):
        # At t = 0 the GHZ state is pure at every theta: a block lacks rank,
        # but the rank does not rise beside theta, so classify finds no
        # rank change and the note says nothing of one.
        options = ["--model", "ghz", "--qubits", "2", "--time", "0", "--theta-bar", "0.1"]
        code, stdout, _ = run_cli(["mc", *options, "--replicates", "20"], capsys)
        assert code == 0
        assert "rank" not in json.loads(stdout)["notes"]
        code, _, err = run_cli(["discontinuity", *options], capsys)
        assert code == 2 and "not a discontinuity" in err

    @pytest.mark.parametrize(
        "options, ranks, n",
        [
            (["--model", "transverse-qubit"], (1, 2), 1),
            # The m = 0 block's vanishing eigenvalue curves at 1.3e-7 of its
            # largest, so within |theta| < 5e-4 it stays under the support
            # cut: only the three m = 1 blocks count as rising.
            (["--model", "ghz", "--qubits", "3"], (4, 7), 3),
        ],
        ids=["transverse-qubit", "ghz-3"],
    )
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_rank_change_in_a_domain_narrower_than_a_step_resolves(
        self, capsys, options, ranks, n
    ):
        # At kappa = 1e-3 the domain (-5e-4, 5e-4) is narrower than the
        # branch step; classify reads theta_bar alone, so mc's note and the
        # discontinuity report give the ranks and the closed-form jump.
        options = [*options, "--kappa", "1e-3", "--theta-bar", "0"]
        code, stdout, _ = run_cli(
            ["mc", *options, "--samples", "10", "--replicates", "10"], capsys
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["violated"] is True
        assert report["notes"].startswith(
            f"rank changes at theta_true=0.0 (effective rank {ranks[0]} vs {ranks[1]} nearby); "
        )
        code, stdout, _ = run_cli(["discontinuity", *options], capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["kind"] == "jump"
        assert (payload["rank_at_bar"], payload["rank_beside"]) == ranks
        # The closed forms lose ~1e-10 n / kappa^2 to cancellation.
        jump = models.ghz_qfi_continuous(n, 1e-3, 1.0) - models.ghz_qfi_discontinuous(n, 1e-3, 1.0)
        assert payload["delta_q_measured"] == pytest.approx(jump, rel=1e-5)

    def test_library_sample_count_stays_invalid_input(self):
        model = models.make_model("classical-bit")
        for theta in (0.0, 0.3):  # a point mass and a sampled law
            with pytest.raises(InvalidInputError, match="n_samples must be >= 1"):
                estimation.run_cr_experiment(model, theta, n_samples=0, n_replicates=5, seed=1)

    def test_boundary_violation_report(self, capsys):
        code, stdout, _ = run_cli(
            [
                "mc",
                "--model",
                "classical-bit",
                "--theta-bar",
                "0",
                "--samples",
                "100",
                "--replicates",
                "100",
                "--seed",
                "7",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["sample_variance"] == 0.0
        assert payload["violated"] is True
        assert payload["cr_bound"] == pytest.approx(0.01)

    def test_expect_violation_satisfied(self, capsys):
        code, _, _ = run_cli(
            [
                "mc",
                "--model",
                "trig",
                "--theta-bar",
                str(math.pi / 2),
                "--samples",
                "50",
                "--replicates",
                "100",
                "--seed",
                "1",
                "--expect-violation",
            ],
            capsys,
        )
        assert code == 0

    def test_expect_violation_mismatch(self, capsys):
        code, _, err = run_cli(
            [
                "mc",
                "--model",
                "classical-bit",
                "--theta-bar",
                "0.3",
                "--samples",
                "2000",
                "--replicates",
                "300",
                "--seed",
                "5",
                "--expect-violation",
            ],
            capsys,
        )
        assert code == 4
        assert "expected" in err

    @pytest.mark.parametrize("n", ["2", "24"])
    def test_ghz_rank_change_has_zero_variance(self, capsys, n):
        with pytest.warns(BoundarySolutionWarning):  # theta = 0 is the bracket edge
            code, out, _ = run_cli(
                ["mc", "--model", "ghz", "--qubits", n, "--theta-bar", "0", "--replicates", "200"],
                capsys,
            )
        assert code == 0
        report = json.loads(out)
        assert report["sample_variance"] == 0.0
        assert report["violated"] is True
        ranks = f"(effective rank {2 ** (int(n) - 1)} vs {2 ** int(n)} nearby)"
        limit = models.ghz_qfi_continuous(int(n), 1.0, 1.0)
        assert ranks in report["notes"]
        assert f"continuous-limit qfi = {limit:.6g} (reported" in report["notes"]

    @pytest.mark.parametrize(
        "model, theta",
        [("classical-bit", "1.5"), ("trig", "-0.1"), ("transverse-qubit", "0.5"), ("ghz", "-0.6")],
    )
    def test_theta_outside_the_domain_is_domain_error(self, capsys, model, theta):
        code, out, err = run_cli(
            ["mc", "--model", model, "--qubits", "3", f"--theta-bar={theta}"], capsys
        )
        assert code == 2
        assert out == ""
        assert "domain error" in err

    def test_one_qubit_ghz_estimates_as_the_transverse_qubit(self, capsys):
        # Same state, so the same measurement, estimator and estimates.
        args = ["--theta-bar", "0.15", "--samples", "80", "--replicates", "60", "--seed", "3"]
        # Some replicates see only + outcomes: theta = 0, the bracket edge.
        with pytest.warns(BoundarySolutionWarning):
            _, ghz, _ = run_cli(["mc", "--model", "ghz", "--qubits", "1"] + args, capsys)
        with pytest.warns(BoundarySolutionWarning):
            _, qubit, _ = run_cli(["mc", "--model", "transverse-qubit"] + args, capsys)
        assert json.loads(ghz)["estimates"] == json.loads(qubit)["estimates"]

    def test_single_replicate_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["mc", "--model", "classical-bit", "--theta-bar", "0.3", "--replicates", "1"],
            capsys,
        )
        assert code == 1

    def test_reports_are_deterministic(self, capsys):
        args = [
            "mc",
            "--model",
            "classical-bit",
            "--theta-bar",
            "0.4",
            "--samples",
            "200",
            "--replicates",
            "50",
            "--seed",
            "21",
        ]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


class TestLongTimes:
    # At kappa = 1, t = 2000, xi*t/2 = 1000 lies past the ~710 where cosh
    # and sinh overflow a double; the coefficients are built without them.
    LONG = ["--model", "ghz", "--qubits", "3", "--kappa", "1", "--time", "2000"]

    def test_qfi_scan(self, capsys):
        code, stdout, err = run_cli(["qfi-scan", *self.LONG, "--grid", "0:0.2:3"], capsys)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(stdout.splitlines()))
        assert float(rows[0]["qfi"]) == pytest.approx(
            models.ghz_qfi_discontinuous(3, 1.0, 2000.0), rel=1e-10
        )
        assert 4.0 * float(rows[0]["bures_metric"]) == pytest.approx(
            models.ghz_qfi_continuous(3, 1.0, 2000.0), rel=1e-10
        )
        assert [float(r["four_g_minus_qfi"]) for r in rows[1:]] == [0.0, 0.0]

    def test_qfi_scan_marks_rows_outside_the_domain(self, capsys):
        # theta = 0.8 lies outside |theta| < kappa/2.
        code, stdout, _ = run_cli(["qfi-scan", *self.LONG, "--grid", "0:0.8:3"], capsys)
        rows = list(csv.DictReader(stdout.splitlines()))
        assert [r["qfi"].startswith("error(") for r in rows] == [False, False, True]
        assert rows[-1]["qfi"] == "error(DomainError)"
        assert code == 2

    def test_discontinuity(self, capsys):
        code, stdout, err = run_cli(["discontinuity", *self.LONG, "--theta-bar", "0"], capsys)
        assert (code, err) == (0, "")
        jump = models.ghz_qfi_continuous(3, 1.0, 2000.0) - models.ghz_qfi_discontinuous(3, 1.0, 2000.0)
        assert json.loads(stdout)["delta_q_measured"] == pytest.approx(jump, rel=1e-10)

    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_mc(self, capsys):
        # The parity is almost unbiased here: many estimates sit on a bracket edge.
        code, stdout, err = run_cli(["mc", *self.LONG, "--theta-bar", "0.1"], capsys)
        assert (code, err) == (0, "")
        assert len(json.loads(stdout)["estimates"]) == 1000

    def test_ghz_scan(self, capsys):
        code, stdout, err = run_cli(["ghz-scan", "--qubits", "2", "--grid=1000:2000:2"], capsys)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(stdout.splitlines()))
        assert float(rows[-1]["qfi_discontinuous"]) == pytest.approx(
            models.ghz_qfi_discontinuous(2, 1.0, 2000.0), rel=1e-15
        )


class TestOneRead:
    @pytest.mark.parametrize(
        "options, grid",
        [
            (["--model", "classical-bit"], "0:1:11"),
            (["--model", "trig"], "0.1:1.4:14"),
            (["--model", "transverse-qubit"], "-0.4:0.4:2"),
            (["--model", "ghz", "--qubits", "8"], "-0.2:0.2:5"),
        ],
    )
    def test_qfi_scan_reads_once(self, monkeypatch, capsys, options, grid):
        reads = count_reads(monkeypatch)
        code, stdout, _ = run_cli(["qfi-scan", *options, f"--grid={grid}"], capsys)
        assert code == 0 and "error(" not in stdout
        assert len(reads) == 1

    @pytest.mark.parametrize(
        "options, theta",
        [
            (["--model", "classical-bit"], "0.3"),
            (["--model", "classical-bit"], "0"),
            (["--model", "trig"], "0.7"),
            (["--model", "trig"], "1.5707963267948966"),
            (["--model", "transverse-qubit"], "0.1"),
            (["--model", "transverse-qubit"], "0"),
            (["--model", "ghz", "--qubits", "4"], "0.1"),
            (["--model", "ghz", "--qubits", "4"], "0"),
            # kappa/2 = 5e-5 is narrower than any branch step; the note
            # still reads theta alone.
            (["--model", "transverse-qubit", "--kappa", "1e-4"], "0"),
            # Pure at every theta: a block lacks rank, and the note's
            # classification of the same read finds no kernel direction
            # that moves.
            (["--model", "ghz", "--qubits", "2", "--time", "0"], "0.1"),
        ],
    )
    def test_mc_reads_once(self, monkeypatch, capsys, options, theta):
        # Each entry is the number of points of one read: the QFI and the
        # rank-change note share one read of theta alone.
        reads = count_reads(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundarySolutionWarning)
            code, _, _ = run_cli(
                ["mc", *options, "--theta-bar", theta, "--replicates", "20"], capsys
            )
        assert code == 0
        assert reads == [1]


class TestMcText:
    @pytest.mark.parametrize("replicates", [2, 1000])
    @pytest.mark.parametrize(
        "options, theta",
        [
            (["--model", "classical-bit"], 0.3),
            (["--model", "trig"], math.pi / 2),
            (["--model", "transverse-qubit"], 0.0),
            (["--model", "ghz", "--qubits", "8"], 0.1),
        ],
        ids=["classical-bit", "trig", "transverse-qubit", "ghz-8"],
    )
    def test_is_the_indented_json_of_the_report(self, capsys, options, theta, replicates):
        args = ["mc", *options, f"--theta-bar={theta!r}", "--replicates", str(replicates)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundarySolutionWarning)
            code, stdout, _ = run_cli([*args, "--seed", "7"], capsys)
            report = estimation.run_cr_experiment(
                cli._build_model(cli._parser().parse_args(args)),
                theta, n_samples=100, n_replicates=replicates, seed=7,
            )
        assert code == 0
        assert stdout == json.dumps(report.to_json(), indent=2) + "\n"


JSON_SCALARS = st.one_of(
    st.text(),
    st.sampled_from(['", "', '"quoted"', "\x00\x1f\x7f\n\t\\", "é ü ß 中 \U0001f600"]),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e308, -1e308]),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, -(2**63) - 1, 2**64]),
    st.booleans(),
    st.none(),
)


@given(st.dictionaries(st.text(), JSON_SCALARS, min_size=1))
def test_the_report_encoder_is_the_indented_dump(fields):
    # discontinuity's report and mc's head go through json's C encoder.
    assert cli._flat_json(fields) == json.dumps(fields, indent=2)


# Finite floats at the edges of their text: the zeros of both signs, the
# smallest subnormal and normal, exponent notation from 1e16 up and below
# 1e-4, a 17-digit third, and the largest finite float of each sign.
ESTIMATE_EDGES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1 / 3,
    1.7976931348623157e308, -1.7976931348623157e308,
]


@given(
    st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(ESTIMATE_EDGES))
    ),
    st.randoms(use_true_random=False),
    st.floats(),
    st.floats(min_value=0.0),
    st.booleans(),
    st.text(),
)
def test_mc_text_is_the_indented_dump_of_any_report(
    extra, rng, variance, cr_bound, violated, notes
):
    # TestMcText reads real reports; these estimates come from no model.
    estimates = ESTIMATE_EDGES + extra
    rng.shuffle(estimates)
    report = estimation.EstimationReport(
        model="synthetic", theta_true=0.25, n_samples=100, n_replicates=len(estimates), seed=5,
        estimates=np.array(estimates), sample_variance=variance, cr_bound=cr_bound,
        violated=violated, notes=notes,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # the mean of ±1.8e308
        assert cli._mc_json(report) == json.dumps(report.to_json(), indent=2) + "\n"


@given(st.lists(st.dictionaries(st.text(), JSON_SCALARS, min_size=1), min_size=1, max_size=4))
def test_the_table_encoder_is_the_indented_dump(rows):
    # qfi-scan and ghz-scan --format json go through json's C encoder.
    assert cli._table_json(rows) == json.dumps(rows, indent=2)


@pytest.mark.parametrize(
    "args, code, cells",
    [
        (["qfi-scan", "--model", "classical-bit", "--grid=-0.5:1:4"], 2,
         ['"qfi": "error(DomainError)"', '"bures_metric": "inf"']),
        (["ghz-scan", "--qubits", "1,3", "--grid", "0:2:3"], 0,
         ['"t": 0.0', '"qfi_continuous_per_t": 0.0']),
    ],
    ids=["qfi-scan", "ghz-scan"],
)
def test_a_json_table_is_the_indented_dump_of_its_rows(capsys, monkeypatch, args, code, cells):
    # The same command with the pure-Python indented dump is the reference.
    args = [*args, "--format", "json"]
    fast = run_cli(args, capsys)
    monkeypatch.setattr(cli, "_table_json", lambda rows: json.dumps(rows, indent=2))
    assert run_cli(args, capsys) == fast
    assert fast[0] == code and all(cell in fast[1] for cell in cells)


def per_row_scan(model, grid) -> tuple[str, str, int]:
    """qfi-scan's CSV stdout, stderr and exit code with each row read alone
    by ``model_qfi`` and ``bures_metric_fd``; a domain error marks its row,
    and any other error ends the command."""
    lines, code = ["theta,qfi,bures_metric,four_g_minus_qfi"], 0
    for theta in grid:
        try:
            q = quantum.model_qfi(model, theta)
            g = quantum.bures_metric_fd(model, theta)
        except DomainError as err:
            code = cli._failure(err)[0]
            lines.append(cli._fmt(theta) + f",error({type(err).__name__})" * 3)
        except (ValueError, RuntimeError) as err:  # ends the command
            code, label = cli._failure(err)
            return "", f"{label}: {err}\n", code
        else:
            lines.append(",".join(cli._fmt(x) for x in (theta, q, g, 4.0 * g - q)))
    return "\n".join(lines) + "\n", "", code


def failing_at(model, point, error):
    """``model`` whose blocks at ``point`` fail: ``error`` is raised there, or
    with "hermitian" the first block gets an upper-triangle entry."""

    def blocks(theta):
        direct_sum = model.blocks_fn(theta)
        if theta != point:
            return direct_sum
        if error != "hermitian":
            raise error(f"blocks at theta={theta} fail")
        mults, mats, *derivatives = direct_sum
        mats = mats.copy()
        mats[0] += np.triu(np.full(mats.shape[1:], 1e-6), 1)
        return (mults, mats, *derivatives)

    return dataclasses.replace(model, blocks_fn=blocks)


class TestScanFallback:
    """qfi-scan marks the rows outside the domain and reads the others in
    one call; it prints what the rows read alone print, and a failure
    inside the domain ends the command."""

    GRID = cli.parse_grid("-0.2:0.2:5").tolist()

    # An inner row and an end row of the grid.
    @pytest.mark.parametrize("point", [GRID[2], GRID[0]], ids=["row", "end-row"])
    @pytest.mark.parametrize(
        "error", ["hermitian", NumericalError, DomainError, StepSizeError, DegenerateModelError]
    )
    def test_one_failing_point(self, monkeypatch, capsys, point, error):
        # Blocks that fail at a point inside the domain fail the one read of
        # the grid, and the command ends with that read's error: no table
        # is printed and no row is read again.
        model = failing_at(models.make_model("ghz", n_qubits=3), point, error)
        monkeypatch.setattr(cli, "_build_model", lambda args: model)
        with pytest.raises((ValueError, RuntimeError)) as failed:
            quantum.qfi_and_metric(model, self.GRID)
        assert type(failed.value) is (InvalidInputError if error == "hermitian" else error)
        reads = count_reads(monkeypatch)
        code, stdout, err = run_cli(["qfi-scan", "--model", "ghz", "--grid=-0.2:0.2:5"], capsys)
        expected_code, label = cli._failure(failed.value)
        assert (stdout, err, code) == ("", f"{label}: {failed.value}\n", expected_code)
        assert code != 0
        assert reads == [len(self.GRID)]

    @pytest.mark.parametrize(
        "options, grid",
        [
            (TestLongTimes.LONG, "0:0.8:3"),
            # Grids that cross both domain edges.
            (TestLongTimes.LONG, "-0.6:0.6:5"),
            (["--model", "transverse-qubit"], "0.3:0.6:4"),
            (["--model", "transverse-qubit", "--kappa", "1e-4"], "-8e-5:8e-5:5"),
        ],
    )
    def test_failing_rows_beside_each_other(self, capsys, options, grid):
        argv = ["qfi-scan", *options, f"--grid={grid}"]
        code, stdout, err = run_cli(argv, capsys)
        model = cli._build_model(cli._parser().parse_args(argv))
        assert (stdout, err, code) == per_row_scan(model, cli.parse_grid(grid).tolist())
        assert code != 0


# Every built-in domain edge: the edge itself where the domain is closed,
# else the last float inside it, and the direction that leaves the domain.
EDGES = [
    (["--model", "classical-bit"], 0.0, -1.0),
    (["--model", "classical-bit"], 1.0, 1.0),
    (["--model", "trig"], 0.0, -1.0),
    (["--model", "trig"], math.pi / 2, 1.0),
    (["--model", "transverse-qubit"], math.nextafter(-0.5, 0.0), -1.0),
    (["--model", "transverse-qubit"], math.nextafter(0.5, 0.0), 1.0),
    (["--model", "ghz", "--qubits", "3", "--kappa", "0.2"], math.nextafter(-0.1, 0.0), -1.0),
    (["--model", "ghz", "--qubits", "3", "--kappa", "0.2"], math.nextafter(0.1, 0.0), 1.0),
]


class TestDomainEdges:
    """qfi-scan, discontinuity and mc agree on which points lie in the domain."""

    @pytest.mark.parametrize(
        "options, edge, outward",
        EDGES,
        ids=["bit-0", "bit-1", "trig-0", "trig-pi/2", "tq-lo", "tq-hi", "ghz-lo", "ghz-hi"],
    )
    def test_one_step_past_an_edge_is_a_domain_error(self, monkeypatch, capsys, options, edge, outward):
        past = math.nextafter(edge, outward * math.inf)
        reads = count_reads(monkeypatch)
        code, stdout, _ = run_cli(["qfi-scan", *options, f"--grid={edge!r}:{past!r}:2"], capsys)
        rows = list(csv.DictReader(stdout.splitlines()))
        assert [float(r["theta"]) for r in rows] == [edge, past]
        assert not rows[0]["qfi"].startswith("error(")
        assert [rows[1][c] for c in ("qfi", "bures_metric", "four_g_minus_qfi")] == [
            "error(DomainError)"
        ] * 3
        assert code == 2
        assert reads == [1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundarySolutionWarning)
            for command in (["discontinuity"], ["mc", "--replicates", "20"]):
                # At the edge a command may find no discontinuity, but not
                # a point outside the domain; one step past, every one does.
                _, _, err = run_cli([*command, *options, f"--theta-bar={edge!r}"], capsys)
                assert not err.startswith("domain error")
                code, stdout, err = run_cli([*command, *options, f"--theta-bar={past!r}"], capsys)
                assert (code, stdout) == (2, "")
                assert err.startswith("domain error: ")

    def test_discontinuity_just_past_one_is_refused(self, capsys):
        argv = ["discontinuity", "--model", "classical-bit", "--theta-bar", "1.0000000000001"]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("domain error: ")

    def test_qfi_scan_marks_a_row_just_past_one(self, capsys):
        argv = ["qfi-scan", "--model", "classical-bit", "--grid", "0.5:1.0000000000001:2"]
        code, stdout, _ = run_cli(argv, capsys)
        rows = list(csv.DictReader(stdout.splitlines()))
        assert [r["qfi"] for r in rows] == ["4", "error(DomainError)"]
        assert code == 2

    def test_qfi_scan_reads_the_rows_inside_in_one_call(self, monkeypatch, capsys):
        reads = count_reads(monkeypatch)
        argv = ["qfi-scan", "--model", "ghz", "--qubits", "3", "--grid=-0.6:0.6:5"]
        code, stdout, _ = run_cli(argv, capsys)
        rows = list(csv.DictReader(stdout.splitlines()))
        assert [r["qfi"].startswith("error(") for r in rows] == [True, False, False, False, True]
        assert rows[0]["qfi"] == rows[-1]["qfi"] == "error(DomainError)"
        assert code == 2
        assert reads == [3]

    def test_a_grid_wholly_outside_the_domain_is_not_read(self, monkeypatch, capsys):
        reads = count_reads(monkeypatch)
        code, stdout, err = run_cli(["qfi-scan", "--model", "trig", "--grid=1.6:2:3"], capsys)
        rows = list(csv.DictReader(stdout.splitlines()))
        assert len(rows) == 3
        assert all(r[c] == "error(DomainError)" for r in rows for c in list(r)[1:])
        assert (code, err) == (2, "")
        assert reads == []


# One call of each command, plus a usage error and a domain error; ghz-scan
# rewrites fields of its namespace, and the first grid starts with a minus.
REPEATED_CALLS = [
    ("scan.csv", ["qfi-scan", "--model", "transverse-qubit", "--grid", "-0.4:0.4:2"]),
    ("scan.json", ["qfi-scan", "--model", "trig", "--grid=0.2:0.6:3", "--format", "json"]),
    ("disc.json", ["discontinuity", "--model", "transverse-qubit", "--theta-bar", "0"]),
    ("ghz.csv", ["ghz-scan", "--qubits", "1,2", "--grid", "0.5:2:3"]),
    ("mc.json", ["mc", "--model", "classical-bit", "--theta-bar", "0.3", "--replicates", "20"]),
    ("usage.csv", ["qfi-scan", "--model", "trig", "--grid", "0:1"]),
    ("domain.csv", ["ghz-scan", "--qubits", "1", "--grid", "-1:1:3"]),
]


@pytest.mark.parametrize(
    "value, cell",
    [
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (-0.0, "-0"),
        (5e-324, "4.9406564584124654e-324"),
        (0.1, "0.10000000000000001"),
        (np.float64(0.1), "0.10000000000000001"),
        (7, "7"),
        ("error(DomainError)", "error(DomainError)"),
    ],
)
def test_csv_cells(value, cell):
    # Floats to 17 significant digits, non-finite ones as Python names them;
    # counts and error markers as they are.
    assert cli._fmt(value) == cell


def run_all(directory, capsys):
    directory.mkdir()
    results = []
    for name, argv in REPEATED_CALLS:
        out = directory / name
        code, stdout, err = run_cli([*argv, "--output", str(out)], capsys)
        results.append((name, code, stdout, err, out.read_bytes() if out.exists() else None))
    return results


def test_repeated_calls_share_one_parser_and_no_state(tmp_path, capsys, monkeypatch):
    first = run_all(tmp_path / "first", capsys)
    second = run_all(tmp_path / "second", capsys)
    assert cli._parser() is cli._parser()
    assert cli._parser().commands is cli._parser().commands
    # The fresh side builds the parser and its command parsers on every call.
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cli._parser().commands["mc"] is not cli._parser().commands["mc"]
    fresh = run_all(tmp_path / "fresh", capsys)
    assert [r[1] for r in first] == [0, 0, 0, 0, 0, 1, 2]
    assert all(r[4] for r in first[:5])
    assert second == first
    assert fresh == first


# argvs for the dispatch test; "OUT" stands for an output file.
DISPATCH_ARGVS = {
    "qfi-scan": ["qfi-scan", "--model", "trig", "--grid", "0.2:0.6:3", "--output", "OUT"],
    "qfi-scan-json": ["qfi-scan", "--model", "trig", "--grid=0.2:0.6:3", "--format", "json"],
    "separate-negative-grid": ["qfi-scan", "--model", "transverse-qubit", "--grid", "-0.4:0.4:2"],
    "discontinuity": ["discontinuity", "--model", "transverse-qubit", "--theta-bar=0"],
    "discontinuity-output": ["discontinuity", "--model", "trig", "--theta-bar=0",
                             "--output", "OUT"],
    "ghz-scan": ["ghz-scan", "--qubits", "1,2", "--grid", "0.5:2:3", "--output", "OUT"],
    "ghz-scan-domain": ["ghz-scan", "--qubits", "1", "--grid", "-1:1:3", "--format", "json"],
    "mc": ["mc", "--model", "classical-bit", "--theta-bar=0.3", "--replicates", "20"],
    "mc-expectation": ["mc", "--model", "classical-bit", "--theta-bar", "0.3", "--replicates",
                       "20", "--expect-violation", "--output", "OUT"],
    "abbreviated-options": ["mc", "--model", "trig", "--theta", "0.4", "--rep", "10"],
    "unknown-option": ["qfi-scan", "--model", "trig", "--grid", "0:1:2", "--bogus", "1"],
    "missing-required": ["discontinuity", "--model", "trig"],
    "invalid-model": ["mc", "--model", "nope", "--theta-bar", "0"],
    "invalid-int": ["mc", "--model", "trig", "--theta-bar", "0", "--samples", "0"],
    "bad-grid": ["qfi-scan", "--model", "trig", "--grid", "0:1"],
    "empty": [],
    "unknown-command": ["scan", "--model", "trig"],
    "option-first": ["--model", "trig", "qfi-scan"],
    "help": ["-h"],
    "command-help": ["ghz-scan", "--help"],
}


def cli_outcome(argv, out, capsys):
    """Exit code, stdout, stderr and output file bytes of ``cli.main(argv)``,
    "OUT" in argv standing for ``out``; ``-h`` exits through SystemExit."""
    argv = [str(out) if arg == "OUT" else arg for arg in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    written = out.read_bytes() if out.exists() else None
    return code, captured.out, captured.err, written


@pytest.mark.parametrize("argv", DISPATCH_ARGVS.values(), ids=DISPATCH_ARGVS.keys())
def test_dispatch_to_the_command_parser_matches_the_top_level_parse(
    argv, tmp_path, capsys, monkeypatch
):
    # Each parse_known_args call, by the prog of its parser: a command's
    # argv is parsed once, by that command's parser alone.
    parsed = []
    parse_known_args = cli._Parser.parse_known_args

    def spied(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", spied)
    dispatched = cli_outcome(argv, tmp_path / "dispatched", capsys)
    dispatched_parses = parsed[:]
    top_level = cli.build_parser()
    top_level.commands = {}  # no command is dispatched: the top-level parser reads all
    monkeypatch.setattr(cli, "_parser", lambda: top_level)
    assert cli_outcome(argv, tmp_path / "top-level", capsys) == dispatched
    if argv and argv[0] in cli.build_parser().commands:
        assert dispatched_parses == [f"qfidisc {argv[0]}"]
        assert parsed[len(dispatched_parses):] == ["qfidisc", f"qfidisc {argv[0]}"]
    else:
        assert dispatched_parses == ["qfidisc"]


# One command of each kind and format, each as its --output file and on stdout.
OUTPUT_ARGVS = {
    "qfi-scan-csv": ["qfi-scan", "--model", "trig", "--grid", "0.2:0.6:3"],
    "qfi-scan-json": ["qfi-scan", "--model", "ghz", "--qubits", "3", "--grid=-0.2:0.2:3",
                      "--format", "json"],
    "ghz-scan-csv": ["ghz-scan", "--qubits", "1,4", "--grid", "0:2:4"],
    "ghz-scan-json": ["ghz-scan", "--qubits", "2", "--grid", "0.1:1:3:log", "--format", "json"],
    "discontinuity-json": ["discontinuity", "--model", "transverse-qubit", "--theta-bar=0"],
    "mc-json": ["mc", "--model", "trig", "--theta-bar=0", "--replicates", "20"],
}


@pytest.mark.parametrize("argv", OUTPUT_ARGVS.values(), ids=OUTPUT_ARGVS.keys())
def test_output_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert run_cli([*argv, "--output", str(out)], capsys) == (0, "", "")
    written = out.read_bytes()
    assert written == stdout.encode("utf-8")
    assert b"\r" not in written and written.endswith(b"\n")
    if argv[0] == "mc":
        # json escapes the é of the notes' "Cramér-Rao" as \u00e9.
        assert b"Cram\\u00e9r-Rao" in written


def test_write_encodes_utf8_and_keeps_lf(tmp_path):
    out = tmp_path / "out"
    text = "Cramér-Rao\nbound\n"
    cli._write(text, str(out))
    assert out.read_bytes() == b"Cram\xc3\xa9r-Rao\nbound\n"
    cli._write("", str(out))  # an existing file is replaced
    assert out.read_bytes() == b""


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()


def test_subcommand_option_sets():
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    common = {"-h", "--help", "--model", "--kappa", "--time", "--qubits", "--output"}
    expected = {
        "qfi-scan": common | {"--grid", "--format"},
        "discontinuity": common | {"--theta-bar"},
        "ghz-scan": {"-h", "--help", "--qubits", "--grid", "--kappa", "--format", "--output"},
        "mc": common
        | {"--theta-bar", "--samples", "--replicates", "--seed", "--expect-violation"},
    }
    assert {name: set(sub._option_string_actions) for name, sub in subs.items()} == expected


def test_console_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qfidisc.cli", "qfi-scan", "--model", "trig", "--grid", "0.4:0.8:3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "theta,qfi,bures_metric,four_g_minus_qfi"
