"""Tests for the command-line interface (direct main() invocation)."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def pauli_file(tmp_path):
    from repro.pauli import random_pauli_set, save_pauli_set

    path = tmp_path / "input.txt"
    save_pauli_set(random_pauli_set(40, 5, seed=0), path)
    return str(path)


class TestGenerate:
    def test_generate_writes_file(self, tmp_path, capsys):
        out = tmp_path / "h2.txt"
        rc = main(["generate", "--atoms", "2", "--output", str(out)])
        assert rc == 0
        assert out.exists()
        assert "4 qubits" in capsys.readouterr().out

    def test_generate_bk(self, tmp_path):
        out = tmp_path / "h2bk.txt"
        assert main([
            "generate", "--atoms", "2", "--transform", "bravyi_kitaev",
            "--output", str(out),
        ]) == 0


class TestColor:
    def test_picasso_default(self, pauli_file, capsys):
        rc = main(["color", pauli_file, "--validate"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "picasso" in out
        assert "validated" in out

    def test_presets_and_overrides(self, pauli_file, capsys):
        rc = main([
            "color", pauli_file, "--preset", "aggressive",
            "--palette-percent", "10", "--alpha", "3", "--validate",
        ])
        assert rc == 0

    @pytest.mark.parametrize(
        "algo", ["greedy-dlf", "greedy-lf", "jp", "speculative"]
    )
    def test_baselines(self, pauli_file, algo, capsys):
        rc = main(["color", pauli_file, "--algorithm", algo, "--validate"])
        assert rc == 0
        assert "colors" in capsys.readouterr().out

    def test_writes_colors(self, pauli_file, tmp_path):
        out = tmp_path / "colors.txt"
        assert main(["color", pauli_file, "--output", str(out)]) == 0
        colors = np.loadtxt(out, dtype=np.int64)
        assert colors.shape == (40,)
        assert (colors >= 0).all()


class TestSweepAndCensusAndTaper:
    def test_sweep(self, pauli_file, capsys):
        rc = main([
            "sweep", pauli_file,
            "--palette-percents", "5", "15", "--alphas", "1", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Eq. 7 optima" in out
        assert "beta=0.5" in out

    def test_census_small(self, capsys):
        assert main(["census", "--tier", "small"]) == 0
        out = capsys.readouterr().out
        assert "H2_1D_sto3g" in out

    def test_taper(self, capsys):
        assert main(["taper", "--atoms", "2"]) == 0
        out = capsys.readouterr().out
        assert "Z2 symmetries" in out
        assert "tapered to" in out

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_shm_flag_is_gone(self, pauli_file, capsys):
        """The result pipe is the only gather; ``--shm`` is no option."""
        with pytest.raises(SystemExit) as exc:
            main(["color", pauli_file, "--shm"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --shm" in capsys.readouterr().err


#: Every subcommand's --metrics-json carries the same top-level schema.
_UNIFORM_KEYS = {
    "command", "algorithm", "elapsed_s", "n_colors", "iterations",
    "phase_times",
}


class TestObservabilityFlags:
    def _metrics(self, tmp_path, argv):
        import json

        out = tmp_path / "metrics.json"
        assert main([*argv, "--metrics-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert _UNIFORM_KEYS <= set(payload)
        assert payload["elapsed_s"] >= 0.0
        return payload

    def test_color_metrics_schema(self, pauli_file, tmp_path):
        payload = self._metrics(tmp_path, ["color", pauli_file])
        assert payload["command"] == "color"
        assert payload["algorithm"] == "picasso"
        assert payload["n_colors"] > 0
        assert payload["iterations"]
        assert "assignment" in payload["phase_times"]

    def test_generate_metrics_schema(self, tmp_path):
        out = tmp_path / "h2.txt"
        payload = self._metrics(
            tmp_path, ["generate", "--atoms", "2", "--output", str(out)]
        )
        assert payload["command"] == "generate"
        assert payload["algorithm"] is None
        assert payload["n_colors"] is None
        assert payload["n_strings"] > 0

    def test_sweep_metrics_schema(self, pauli_file, tmp_path):
        payload = self._metrics(tmp_path, [
            "sweep", pauli_file,
            "--palette-percents", "5", "--alphas", "1",
        ])
        assert payload["command"] == "sweep"
        assert payload["points"]

    def test_census_metrics_schema(self, tmp_path):
        payload = self._metrics(tmp_path, ["census", "--tier", "small"])
        assert payload["command"] == "census"
        assert payload["molecules"]

    def test_taper_metrics_schema(self, tmp_path):
        payload = self._metrics(tmp_path, ["taper", "--atoms", "2"])
        assert payload["command"] == "taper"
        assert payload["n_qubits_after"] <= payload["n_qubits_before"]

    def test_trace_and_prometheus_export(self, pauli_file, tmp_path):
        import json

        from repro import telemetry

        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        try:
            rc = main([
                "color", pauli_file,
                "--trace-json", str(trace), "--metrics-out", str(prom),
            ])
        finally:
            telemetry.reset()
            telemetry.enable(False)
        assert rc == 0
        records = [json.loads(x) for x in trace.read_text().splitlines()]
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert "picasso.assign" in span_names
        assert any(
            line.startswith("repro_span_picasso_assign_count")
            for line in prom.read_text().splitlines()
        )

    def test_exporters_leave_telemetry_disabled_runs_unchanged(
        self, pauli_file, tmp_path, capsys
    ):
        # Plain runs after an exporting run: no telemetry output files,
        # same coloring as ever (neutrality at the CLI layer).
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        from repro import telemetry

        try:
            assert main([
                "color", pauli_file, "--output", str(out_a),
                "--trace-json", str(tmp_path / "t.jsonl"),
            ]) == 0
        finally:
            telemetry.reset()
            telemetry.enable(False)
        assert main(["color", pauli_file, "--output", str(out_b)]) == 0
        np.testing.assert_array_equal(
            np.loadtxt(out_a, dtype=np.int64),
            np.loadtxt(out_b, dtype=np.int64),
        )
