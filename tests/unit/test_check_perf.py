"""Unit tests for the perf-regression gate (``tools/check_perf.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "check_perf", REPO_ROOT / "tools" / "check_perf.py"
)
check_perf = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_perf)


def write_record(
    path: Path, throughputs: dict, *, workload: dict = None, config: dict = None
) -> Path:
    record = {
        "benchmark": "update_throughput",
        "modes": {
            name: {"seconds": 1.0, "rows_per_sec": value}
            for name, value in throughputs.items()
        },
    }
    if workload is not None:
        record["workload"] = workload
    if config is not None:
        record["config"] = config
    path.write_text(json.dumps(record))
    return path


@pytest.fixture
def baseline(tmp_path):
    return write_record(
        tmp_path / "baseline.json",
        {"scalar": 1_000.0, "batched": 8_000.0, "serve": 6_000.0},
    )


def gate(record, baseline, *extra):
    return check_perf.main(
        ["--record", str(record), "--baseline", str(baseline), *extra]
    )


class TestCheckPerf:
    def test_passes_when_within_threshold(self, tmp_path, baseline):
        record = write_record(
            tmp_path / "record.json",
            {"scalar": 900.0, "batched": 7_000.0, "serve": 6_500.0},
        )
        assert gate(record, baseline) == 0

    def test_fails_on_regression_beyond_threshold(self, tmp_path, baseline):
        record = write_record(
            tmp_path / "record.json",
            {"scalar": 1_000.0, "batched": 5_000.0, "serve": 6_000.0},
        )
        assert gate(record, baseline) == 1  # batched dropped 37.5% > 25%
        # A looser threshold admits the same drop.
        assert gate(record, baseline, "--threshold", "0.5") == 0

    def test_fails_when_a_mode_disappears(self, tmp_path, baseline):
        record = write_record(
            tmp_path / "record.json", {"scalar": 1_000.0, "batched": 8_000.0}
        )
        assert gate(record, baseline) == 1  # serve silently gone

    def test_new_modes_never_fail(self, tmp_path, baseline):
        record = write_record(
            tmp_path / "record.json",
            {
                "scalar": 1_000.0,
                "batched": 8_000.0,
                "serve": 6_000.0,
                "windowed": 3_000.0,
            },
        )
        assert gate(record, baseline) == 0

    def test_normalized_comparison_ignores_machine_speed(self, tmp_path, baseline):
        # Uniformly 3x slower hardware: absolute gate fails, normalized passes.
        record = write_record(
            tmp_path / "record.json",
            {"scalar": 333.0, "batched": 2_666.0, "serve": 2_000.0},
        )
        assert gate(record, baseline) == 1
        assert gate(record, baseline, "--normalize", "scalar") == 0

    def test_update_baseline_copies_record(self, tmp_path):
        record = write_record(tmp_path / "record.json", {"scalar": 10.0})
        target = tmp_path / "new" / "baseline.json"
        assert (
            check_perf.main(
                [
                    "--record", str(record),
                    "--baseline", str(target),
                    "--update-baseline",
                ]
            )
            == 0
        )
        assert json.loads(target.read_text()) == json.loads(record.read_text())

    def test_missing_files_exit_with_message(self, tmp_path, baseline):
        with pytest.raises(SystemExit):
            gate(tmp_path / "absent.json", baseline)
        record = write_record(tmp_path / "record.json", {"scalar": 1.0})
        with pytest.raises(SystemExit):
            gate(record, tmp_path / "no_baseline.json")
        not_a_record = tmp_path / "junk.json"
        not_a_record.write_text("{}")
        with pytest.raises(SystemExit):
            gate(not_a_record, baseline)

    def test_committed_baseline_is_a_valid_record(self):
        """The baseline the CI gate compares against must stay loadable."""
        throughputs = check_perf.load_throughputs(check_perf.DEFAULT_BASELINE)
        assert set(throughputs) >= {"scalar", "batched", "serve"}
        assert all(value > 0 for value in throughputs.values())

    def test_committed_baseline_exercises_several_shards(self):
        """num_shards must stay >= 2 so 'sharded' really routes across shards."""
        record = check_perf.load_record(check_perf.DEFAULT_BASELINE)
        assert record["config"]["num_shards"] >= 2


class TestConfigMatchRefusal:
    """A baseline measured under a different config is not comparable."""

    WORKLOAD = {"distribution": "zipf(s=1.1)", "rows": 1000, "seed": 0}
    CONFIG = {"capacity": 256, "num_shards": 4, "num_producers": 4}

    def test_matching_configs_compare_normally(self, tmp_path):
        baseline = write_record(
            tmp_path / "baseline.json", {"scalar": 1_000.0},
            workload=self.WORKLOAD, config=self.CONFIG,
        )
        record = write_record(
            tmp_path / "record.json", {"scalar": 990.0},
            workload=self.WORKLOAD, config=self.CONFIG,
        )
        assert gate(record, baseline) == 0

    def test_mismatched_config_is_refused(self, tmp_path):
        baseline = write_record(
            tmp_path / "baseline.json", {"scalar": 1_000.0},
            workload=self.WORKLOAD,
            config={**self.CONFIG, "num_producers": 1},
        )
        record = write_record(
            tmp_path / "record.json", {"scalar": 5_000.0},
            workload=self.WORKLOAD, config=self.CONFIG,
        )
        # Refused (exit 2) even though no mode regressed.
        assert gate(record, baseline) == 2

    def test_mismatched_workload_is_refused(self, tmp_path):
        baseline = write_record(
            tmp_path / "baseline.json", {"scalar": 1_000.0},
            workload={**self.WORKLOAD, "rows": 999}, config=self.CONFIG,
        )
        record = write_record(
            tmp_path / "record.json", {"scalar": 1_000.0},
            workload=self.WORKLOAD, config=self.CONFIG,
        )
        assert gate(record, baseline) == 2

    def test_missing_section_on_one_side_is_refused(self, tmp_path):
        baseline = write_record(tmp_path / "baseline.json", {"scalar": 1_000.0})
        record = write_record(
            tmp_path / "record.json", {"scalar": 1_000.0},
            workload=self.WORKLOAD, config=self.CONFIG,
        )
        assert gate(record, baseline) == 2

    def test_update_baseline_is_the_escape_hatch(self, tmp_path):
        record = write_record(
            tmp_path / "record.json", {"scalar": 1_000.0},
            workload=self.WORKLOAD, config=self.CONFIG,
        )
        target = tmp_path / "baseline.json"
        assert (
            check_perf.main(
                ["--record", str(record), "--baseline", str(target),
                 "--update-baseline"]
            )
            == 0
        )
        assert gate(record, target) == 0

    def test_mismatch_report_names_the_keys(self, tmp_path):
        baseline = {"workload": self.WORKLOAD, "config": {**self.CONFIG, "num_producers": 1}}
        current = {"workload": self.WORKLOAD, "config": self.CONFIG}
        problems = check_perf.config_mismatches(baseline, current)
        assert problems == ["config.num_producers: baseline 1 != record 4"]
