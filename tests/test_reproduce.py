import json
import runpy
import warnings
from pathlib import Path

from qfidisc.exceptions import BoundarySolutionWarning

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"
RANK_CHANGE_CASES = ["classical_bit_p0", "classical_bit_p1", "trig_theta0", "trig_theta_pi_half"]
MC_RANK_CHANGE_FILES = (
    [f"cr_experiment_{case}.json" for case in RANK_CHANGE_CASES]
    + ["cr_experiment_transverse_t1.json"]
    + [f"cr_experiment_ghz_n{n}_t1.json" for n in (2, 4, 8)]
)
MC_REGULAR_FILES = ["cr_experiment_classical_bit_regular_p03.json"] + [
    f"cr_experiment_ghz_n{n}_regular_t1.json" for n in (2, 4, 8)
]
RESULT_FILES = (
    ["classical_bit_scan.csv", "trig_scan.csv", "ghz_qfi_per_time.csv"]
    + [f"discontinuity_{case}.json" for case in RANK_CHANGE_CASES]
    + [f"discontinuity_transverse_t{t}.json" for t in ("0.5", "1.0", "2.0")]
    + [f"discontinuity_ghz_n{n}_t1.json" for n in (2, 3, 4)]
    + MC_RANK_CHANGE_FILES
    + MC_REGULAR_FILES
)


def test_reproduce_writes_every_result_file(tmp_path):
    main = runpy.run_path(str(SCRIPT))["main"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundarySolutionWarning)  # transverse MLE at theta = 0
        assert main(["--output-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(RESULT_FILES)
    for name in RESULT_FILES:
        assert (tmp_path / name).stat().st_size > 0
    # The Monte Carlo verdicts: zero variance and a violated bound at every
    # rank change, the bound held at every regular point.  A change of the
    # random stream that flips one shows here.
    for name in MC_RANK_CHANGE_FILES:
        report = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert (report["sample_variance"], report["violated"]) == (0.0, True), name
    for name in MC_REGULAR_FILES:
        report = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        assert report["violated"] is False, name
