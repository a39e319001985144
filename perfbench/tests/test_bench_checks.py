"""The output checker passes genuine CLI outputs and catches corrupted ones."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import checks
from workloads import WHY, WORKLOADS, command_spec, write_configs

BENCH = Path(__file__).resolve().parent.parent

WALKS = command_spec("walks", "walks", 1, walks__k="2, 3, 4, 5, 6")
CONCENTRATION = command_spec(
    "concentration", "concentration", 1, sizes="16", trials="100",
    ensemble__preset="wigner_unit", ensemble__law="rademacher",
    concentration__t="0.5, 1.0",
    concentration__bernoulli_p="0.01", concentration__bernoulli_count="100",
    concentration__bernoulli_x="5.0",
)


def run_cli(cmd, tmp_path: Path) -> Path:
    from wignerlab import cli_runner

    (cfg,) = write_configs((cmd,), tmp_path / "configs")
    out = tmp_path / cmd.name
    assert cli_runner.main([cmd.command, "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
    return out


def failures(found: list[checks.Check]) -> list[str]:
    return [c.name for c in found if not c.ok]


def rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_reference_numbers():
    assert [checks.bell(k) for k in range(1, 11)] == [1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
    assert sum(checks.bell(k) for k in range(2, 11)) == 142416
    assert [checks.semicircle_moment(k) for k in (2, 3, 4, 6, 8)] == [1, 0, 2, 5, 14]


def test_walks_row_removed_is_a_failure(tmp_path):
    out = run_cli(WALKS, tmp_path)
    assert failures(checks.check_command(WALKS, out)) == []
    rewrite(out / "walks.csv", lambda rows: rows[:10] + rows[11:])
    assert failures(checks.check_command(WALKS, out)) == ["walks: bell k=4"]


def test_walks_row_reclassified_is_a_failure(tmp_path):
    out = run_cli(WALKS, tmp_path)
    idx = next(i for i, r in enumerate(open(out / "walks.csv")) if r.rstrip().endswith(",double_tree"))
    rewrite(out / "walks.csv", lambda rows: rows[:idx] + [rows[idx][:-1] + ["multi_other"]] + rows[idx + 1:])
    assert len(failures(checks.check_command(WALKS, out))) == 1


def test_undominated_concentration_row_is_a_failure(tmp_path):
    out = run_cli(CONCENTRATION, tmp_path)
    assert failures(checks.check_command(CONCENTRATION, out)) == []

    def break_row(rows):
        header, first = rows[0], rows[1]
        first[header.index("empirical")] = "1"
        first[header.index("bound")] = "0.01"
        return rows

    rewrite(out / "concentration.csv", break_row)
    assert failures(checks.check_command(CONCENTRATION, out)) == ["concentration: dominated ramp(-0.5,0.5) t=0.5"]


def test_missing_output_is_a_failure(tmp_path):
    out = run_cli(CONCENTRATION, tmp_path)
    (out / "concentration.csv").unlink()
    assert failures(checks.check_command(CONCENTRATION, out)) == ["concentration: outputs readable"]


def test_known_defect_is_the_diagonal_law_probe():
    (probe,) = [c for c in WORKLOADS["walk_oracle"] if c.name == "diag_probe"]
    assert probe.get("ensemble.diagonal_law") == "constant_zero"
    assert set(checks.KNOWN_DEFECTS) == {f"diag_probe: oracle n={probe.get('sizes')} k={probe.get('moments.k')}"}


def test_oracle_tolerance_keeps_the_probe_failing():
    # the probe's oracle value 7/3 against the ~1.1 its 2000 trials sample
    assert abs(1.1 - 7 / 3) > 2 * checks.oracle_tolerance(7 / 3, 2000)


def test_benchmark_json_names_the_workloads():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert set(WHY) == set(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mb", "cpu_s", "check_pass_ratio"]
