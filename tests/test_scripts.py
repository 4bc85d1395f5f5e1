"""The experiment scripts under scripts/, each run once on a tiny cohort."""

import csv
import importlib.util
from pathlib import Path

from syncgait.cli import EXIT_OK

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TINY = ["--seed", "0", "--cohort-size", "2", "--enroll-sessions", "6"]


def _run(name, out, *args):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.run(module.build_parser().parse_args(
        ["--out", str(out), *TINY, *args]))


def test_loss_sweep_writes_one_summary_row(tmp_path):
    assert _run("run_loss_sweep", tmp_path, "--levels", "0.3",
                "--genuine-trials", "1") == EXIT_OK
    with (tmp_path / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["loss_rate"]) for r in rows] == [0.3]
    assert rows[0]["n_genuine"] == "2"
    assert (tmp_path / "loss_0.30" / "report.json").is_file()


def test_attack_table_writes_a_report_per_case(tmp_path, capsys):
    assert _run("run_attack_table", tmp_path, "--trials", "1",
                "--fidelities", "0.5") == EXIT_OK
    for case in ("relay_hijack", "mimicry_0.50"):
        assert (tmp_path / case / "report.json").is_file()
    printed = capsys.readouterr().out
    for label in ("genuine", "relay", "hijack", "mimicry f=0.50"):
        assert label in printed


def test_cohort_roc_leaves_report_and_roc_files(tmp_path):
    assert _run("run_cohort_roc", tmp_path, "--trials", "1") == EXIT_OK
    assert (tmp_path / "report.json").is_file()
    for stream in ("consistency", "gait", "fused"):
        header = (tmp_path / f"roc_{stream}.csv").read_text().splitlines()[0]
        assert header == "threshold,far,tar"
