"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_fig3_runs(self, capsys):
        exit_code = main(
            ["fig3", "--scale", "tiny", "-k", "4", "--algorithms", "GSim+,GSim"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "GSim+" in out

    def test_fig5_custom_dataset(self, capsys):
        exit_code = main(
            [
                "fig5", "--scale", "tiny", "--dataset", "HP", "-k", "4",
                "--algorithms", "GSim+",
            ]
        )
        assert exit_code == 0
        assert "GSim+" in capsys.readouterr().out

    def test_deadline_flag_forwarded(self, capsys):
        # An absurdly tight deadline turns slow competitors into >1day cells.
        exit_code = main(
            [
                "fig3", "--scale", "tiny", "-k", "4",
                "--algorithms", "SS-BC*", "--deadline", "0.000001",
            ]
        )
        assert exit_code == 0
        assert ">1day" in capsys.readouterr().out

    def test_memory_budget_flag_forwarded(self, capsys):
        exit_code = main(
            [
                "fig3", "--scale", "tiny", "-k", "4",
                "--algorithms", "GSim", "--memory-budget-mib", "0.001",
            ]
        )
        assert exit_code == 0
        assert "OOM" in capsys.readouterr().out

    def test_accuracy_runs(self, capsys):
        exit_code = main(["accuracy", "--scale", "tiny"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "GSim+ / GSim" in out
        assert "Theorem 3.1" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            main(["fig3", "--scale", "galactic"])

    def test_topk_runs(self, capsys):
        exit_code = main(["topk", "--scale", "tiny", "--dataset", "HP", "--top", "3"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "top-3 pairs" in out
        assert out.count("score") == 3

    def test_datasets_runs(self, capsys):
        exit_code = main(["datasets", "--scale", "tiny"])
        assert exit_code == 0
        out = capsys.readouterr().out
        for key in ("HP", "EE", "WT", "UK", "IT"):
            assert key in out
        assert "gini" in out

    def test_help_lists_figures(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig8", "accuracy", "all"):
            assert name in out

    def test_bound_runs(self, capsys):
        exit_code = main(["bound"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Theorem 4.2" in out
        assert "NO" not in out  # the bound holds at every k

    def test_spec_runs(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "cli-spec-test",
                    "datasets": ["HP"],
                    "algorithms": ["GSim+"],
                    "scale": "tiny",
                    "iterations": 3,
                    "query_size": 8,
                }
            )
        )
        csv_path = tmp_path / "out.csv"
        exit_code = main(["spec", str(spec_path), "--export-csv", str(csv_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cli-spec-test" in out
        assert csv_path.read_text().startswith("algorithm,")

    def test_sim_command_block(self, capsys, tmp_path):
        graph_a = tmp_path / "a.txt"
        graph_a.write_text("0 1\n1 2\n2 0\n")
        graph_b = tmp_path / "b.txt"
        graph_b.write_text("0 1\n")
        exit_code = main(["sim", str(graph_a), str(graph_b), "-k", "4"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "G_A" in out and "G_B" in out

    def test_sim_command_topk_and_csv(self, capsys, tmp_path):
        graph_a = tmp_path / "a.txt"
        graph_a.write_text("0 1\n1 2\n2 0\n")
        graph_b = tmp_path / "b.txt"
        graph_b.write_text("0 1\n1 0\n")
        exit_code = main(
            ["sim", str(graph_a), str(graph_b), "-k", "4", "--top", "2"]
        )
        assert exit_code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

        out_csv = tmp_path / "block.csv"
        exit_code = main(
            ["sim", str(graph_a), str(graph_b), "-k", "4",
             "--output", str(out_csv)]
        )
        assert exit_code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert len(rows) == 3  # n_A rows

    @pytest.mark.parametrize("figure", ["fig2", "fig4", "fig6", "fig7", "fig8"])
    def test_every_figure_command_runs(self, capsys, figure):
        exit_code = main(
            [figure, "--scale", "tiny", "-k", "3", "--algorithms", "GSim+"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert f"Figure {figure[3:]}" in out
        assert "GSim+" in out


# Flags a subcommand used to accept without reading; each is now rejected.
_UNREAD_FLAGS = [
    *[("bound", flag) for flag in (
        ["--scale", "tiny"], ["-k", "4"], ["--algorithms", "GSim"],
        ["--deadline", "1"], ["--memory-budget-mib", "1"],
    )],
    *[("accuracy", flag) for flag in (
        ["-k", "4"], ["--algorithms", "GSim"], ["--deadline", "1"],
        ["--memory-budget-mib", "1"],
    )],
    *[("topk", flag) for flag in (
        ["--algorithms", "GSim"], ["--deadline", "1"],
        ["--memory-budget-mib", "1"],
    )],
    ("live", ["--backend", "process"]),
    ("spec x.json", ["--backend", "process"]),
    *[(command, ["--backend", "process"]) for command in (
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "all",
    )],
]


@pytest.mark.parametrize(
    "command, flag", _UNREAD_FLAGS,
    ids=[f"{command.split()[0]} {flag[0]}" for command, flag in _UNREAD_FLAGS],
)
def test_unread_flag_is_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(command.split() + flag)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_spec_precision_flag_overrides_file(tmp_path, capsys):
    import json

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "precision-override",
        "datasets": ["HP"],
        "algorithms": ["GSim+"],
        "scale": "tiny",
        "iterations": 2,
        "query_size": 4,
        "precision": "float32",
    }))
    argv = ["spec", str(spec_path), "--checkpoint-dir", str(tmp_path)]
    assert main(argv + ["--precision", "float64"]) == 0
    journal = tmp_path / "spec-journal.jsonl"
    keys = [json.loads(line)["key"] for line in journal.read_text().splitlines()]
    assert keys and not any("precision" in key for key in keys)

    journal.unlink()
    assert main(argv) == 0  # without the flag, the file's float32 holds
    keys = [json.loads(line)["key"] for line in journal.read_text().splitlines()]
    assert keys and all("precision=float32" in key for key in keys)


def test_datasets_convert_writes_metrics(tmp_path, capsys):
    import json

    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 0\n2 3\n")
    metrics_path = tmp_path / "metrics.json"
    code = main([
        "datasets", "--metrics", str(metrics_path),
        "convert", str(edges), str(tmp_path / "artifact"),
    ])
    assert code == 0
    counters = json.loads(metrics_path.read_text())["counters"]
    assert counters["mmap_convert.stages_run"] > 0


def test_sim_maps_artifact_directories(tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n2 0\n2 3\n")
    artifact = tmp_path / "artifact"
    assert main(["datasets", "convert", str(edges), str(artifact)]) == 0
    capsys.readouterr()
    argv = ["-k", "3", "--top", "2"]
    assert main(["sim", str(artifact), str(artifact), *argv]) == 0
    mapped = capsys.readouterr().out
    assert main(["sim", str(edges), str(edges), *argv]) == 0
    assert mapped == capsys.readouterr().out
