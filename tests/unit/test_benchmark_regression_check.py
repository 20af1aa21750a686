"""Unit tests of the served-throughput regression gate (scripts/)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "benchmark_regression_check.py"
_spec = importlib.util.spec_from_file_location("benchmark_regression_check", _SCRIPT)
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)


def _artefact(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _baseline(ratio: float = 1.25, served: float = 25.0, **overrides) -> dict:
    """A server artefact: paced loadtest numbers plus the overhead section,
    whose gated ``served_vs_direct`` is ``ratio``."""
    payload = {
        "completed_rps": 1.0,
        "served_solves_per_sec": 2.0,
        "overhead_benchmark": {
            "served_solves_per_sec": served,
            "direct_solves_per_sec": served / ratio,
            "served_vs_direct": ratio,
        },
    }
    payload.update(overrides)
    return payload


class TestLookup:
    def test_dotted_paths_resolve_nested_metrics(self):
        assert check.lookup(_baseline(), "overhead_benchmark.served_vs_direct") == 1.25
        assert check.lookup(_baseline(), "completed_rps") == 1.0

    def test_missing_and_non_numeric_values_are_none(self):
        assert check.lookup({}, "completed_rps") is None
        assert check.lookup({"completed_rps": "fast"}, "completed_rps") is None
        assert check.lookup({"completed_rps": True}, "completed_rps") is None


class TestVerdicts:
    def test_equal_throughput_passes(self, tmp_path, capsys):
        baseline = _artefact(tmp_path, "base.json", _baseline())
        current = _artefact(tmp_path, "curr.json", _baseline())
        assert check.main(["--baseline", baseline, "--current", current]) == 0
        assert "PASS: 1 metric(s)" in capsys.readouterr().out

    def test_improvement_passes(self, tmp_path):
        baseline = _artefact(tmp_path, "base.json", _baseline())
        current = _artefact(tmp_path, "curr.json", _baseline(ratio=2.5))
        assert check.main(["--baseline", baseline, "--current", current]) == 0

    def test_drop_within_tolerance_passes(self, tmp_path):
        baseline = _artefact(tmp_path, "base.json", _baseline(ratio=1.0))
        current = _artefact(tmp_path, "curr.json", _baseline(ratio=0.85))
        assert check.main(["--baseline", baseline, "--current", current]) == 0

    def test_regression_beyond_tolerance_fails(self, tmp_path, capsys):
        baseline = _artefact(tmp_path, "base.json", _baseline(ratio=1.0))
        current = _artefact(tmp_path, "curr.json", _baseline(ratio=0.7))
        assert check.main(["--baseline", baseline, "--current", current]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "overhead_benchmark.served_vs_direct" in out

    def test_absolute_served_throughput_is_not_gated(self, tmp_path, capsys):
        """A slower machine serves fewer solves/s at the same served/direct
        ratio; a slower serve path lowers the ratio whatever the machine."""
        baseline = _artefact(tmp_path, "base.json", _baseline(ratio=1.2, served=60.0))
        slower_machine = _artefact(tmp_path, "slow.json", _baseline(ratio=1.2, served=30.0))
        slower_path = _artefact(tmp_path, "path.json", _baseline(ratio=0.6, served=60.0))
        assert check.main(["--baseline", baseline, "--current", slower_machine]) == 0
        out = capsys.readouterr().out
        assert "served_solves_per_sec" not in out
        assert "PASS: 1 metric(s)" in out
        assert check.main(["--baseline", baseline, "--current", slower_path]) == 1

    def test_paced_loadtest_numbers_are_not_gated(self, tmp_path, capsys):
        """The loadtest's own rates follow its pacing and dedup, not capacity."""
        baseline = _artefact(tmp_path, "base.json", _baseline())
        current = _artefact(
            tmp_path,
            "curr.json",
            _baseline(completed_rps=0.1, served_solves_per_sec=0.2),
        )
        assert check.main(["--baseline", baseline, "--current", current]) == 0
        out = capsys.readouterr().out
        assert "completed_rps" not in out
        assert "PASS: 1 metric(s)" in out

    def test_tolerance_flag_widens_the_floor(self, tmp_path):
        baseline = _artefact(tmp_path, "base.json", _baseline(ratio=1.0))
        current = _artefact(tmp_path, "curr.json", _baseline(ratio=0.6))
        args = ["--baseline", baseline, "--current", current]
        assert check.main(args) == 1
        assert check.main(args + ["--tolerance", "0.5"]) == 0

    def test_metrics_absent_from_one_side_are_skipped(self, tmp_path, capsys):
        baseline = _artefact(tmp_path, "base.json", _baseline())
        current = _artefact(tmp_path, "curr.json", {"completed_rps": 1.0})
        assert check.main(["--baseline", baseline, "--current", current]) == 2
        out = capsys.readouterr().out
        assert "[skip] overhead_benchmark.served_vs_direct" in out
        assert "nothing gated" in out


def _opt_baseline(**overrides) -> dict:
    payload = {
        "kind": "opt-bench",
        "geomean_speedup": 2.3,
        "seeded_geomean_speedup": 2.6,
        "proven_fraction": 1.0,
    }
    payload.update(overrides)
    return payload


class TestArtefactKinds:
    def test_unmarked_artefacts_default_to_server_bench(self):
        assert check.artefact_kind(_baseline()) == "server-bench"
        assert check.artefact_kind({"kind": "mystery"}) == "server-bench"
        assert check.artefact_kind(_opt_baseline()) == "opt-bench"

    def test_opt_bench_metrics_are_gated(self, tmp_path, capsys):
        baseline = _artefact(tmp_path, "base.json", _opt_baseline())
        current = _artefact(tmp_path, "curr.json", _opt_baseline(geomean_speedup=1.0))
        assert check.main(["--baseline", baseline, "--current", current]) == 1
        out = capsys.readouterr().out
        assert "[opt-bench]" in out
        assert "geomean_speedup" in out

    def test_opt_bench_within_tolerance_passes(self, tmp_path):
        baseline = _artefact(tmp_path, "base.json", _opt_baseline())
        current = _artefact(
            tmp_path, "curr.json", _opt_baseline(seeded_geomean_speedup=2.2)
        )
        assert check.main(["--baseline", baseline, "--current", current]) == 0

    def test_proven_fraction_collapse_fails(self, tmp_path):
        baseline = _artefact(tmp_path, "base.json", _opt_baseline())
        current = _artefact(tmp_path, "curr.json", _opt_baseline(proven_fraction=0.5))
        assert check.main(["--baseline", baseline, "--current", current]) == 1

    def test_mismatched_kinds_are_a_hard_failure(self, tmp_path, capsys):
        baseline = _artefact(tmp_path, "base.json", _baseline())
        current = _artefact(tmp_path, "curr.json", _opt_baseline())
        assert check.main(["--baseline", baseline, "--current", current]) == 2
        assert "kinds differ" in capsys.readouterr().out


class TestHardFailures:
    def test_no_comparable_metric_is_a_hard_failure(self, tmp_path, capsys):
        baseline = _artefact(tmp_path, "base.json", {"unrelated": 1})
        current = _artefact(tmp_path, "curr.json", _baseline())
        assert check.main(["--baseline", baseline, "--current", current]) == 2
        assert "nothing gated" in capsys.readouterr().out

    def test_unreadable_artefact_is_a_hard_failure(self, tmp_path, capsys):
        current = _artefact(tmp_path, "curr.json", _baseline())
        code = check.main(["--baseline", str(tmp_path / "missing.json"), "--current", current])
        assert code == 2
        assert "cannot read" in capsys.readouterr().out

    def test_invalid_tolerance_is_rejected(self, tmp_path):
        baseline = _artefact(tmp_path, "base.json", _baseline())
        with pytest.raises(SystemExit):
            check.main(["--baseline", baseline, "--current", baseline, "--tolerance", "1.5"])
