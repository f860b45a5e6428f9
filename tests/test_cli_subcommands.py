"""Tests for the subcommand CLI."""

from __future__ import annotations

import json

import pytest

from repro.pipeline.cli import main as pipeline_main


class TestSubcommands:
    def test_compress(self, capsys):
        code = pipeline_main(
            ["compress", "--topo", "ring", "--size", "5", "--executor", "serial"]
        )
        assert code == 0
        assert "compression pipeline" in capsys.readouterr().out

    def test_verify(self, capsys):
        code = pipeline_main(
            ["verify", "--topo", "ring", "--size", "5", "--executor", "serial"]
        )
        assert code == 0
        assert "batch verification" in capsys.readouterr().out

    def test_failures(self, capsys):
        code = pipeline_main(
            ["failures", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--k", "1", "--sample", "3", "--no-oracle", "--no-soundness"]
        )
        assert code == 0
        assert "failure sweep" in capsys.readouterr().out

    def test_delta(self, capsys):
        code = pipeline_main(
            ["delta", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--no-oracle"]
        )
        assert code == 0
        assert "change-impact sweep" in capsys.readouterr().out

    def test_output_report_is_enveloped(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = pipeline_main(
            ["verify", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--output", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "verification"
        assert data["ok"] is True
        from repro.reporting import load_report

        assert load_report(out.read_text()).kind == "verification"

    def test_family_required(self, capsys):
        code = pipeline_main(["verify", "--executor", "serial"])
        assert code == 2
        assert "topology family is required" in capsys.readouterr().err

    def test_unknown_subcommand_arguments(self, capsys):
        # Subcommand parsers reject flags from other modes outright.
        code = pipeline_main(["compress", "--topo", "ring", "--k", "2"])
        assert code == 2

    def test_help_exits_zero(self, capsys):
        assert pipeline_main(["verify", "--help"]) == 0
        capsys.readouterr()


#: Each batch subcommand over every family, kept small.
FAMILY_LOOP_RUNS = {
    "compress": ["compress", "--limit", "1"],
    "verify": ["verify", "--limit", "1"],
    "failures": ["failures", "--limit", "1", "--sample", "2"],
    "delta": ["delta", "--limit", "1", "--steps", "1"],
}


class TestFamilyLoop:
    """compress, verify, failures and delta run one family loop: one
    ``--output`` convention, one memory gate."""

    @pytest.mark.parametrize("command", sorted(FAMILY_LOOP_RUNS))
    def test_output_maps_every_family(self, command, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = FAMILY_LOOP_RUNS[command] + [
            "--family", "all", "--executor", "serial", "--output", str(out)
        ]
        assert pipeline_main(argv) == 0
        capsys.readouterr()
        reports = json.loads(out.read_text())
        assert sorted(reports) == ["datacenter", "fattree", "mesh", "ring", "wan"]
        assert all(report["ok"] for report in reports.values())

    @pytest.mark.parametrize("command", sorted(FAMILY_LOOP_RUNS))
    def test_memory_budget_gates_every_family(self, command, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = FAMILY_LOOP_RUNS[command] + [
            "--family", "all", "--executor", "serial", "--memory-budget", "1",
            "--output", str(out),
        ]
        assert pipeline_main(argv) == 1
        assert capsys.readouterr().out.count("EXCEEDS budget 1.0 MiB") == 5
        # Spilled reports stream into the map one by one; it still loads.
        reports = json.loads(out.read_text())
        assert sorted(reports) == ["datacenter", "fattree", "mesh", "ring", "wan"]
        assert all(report["records"] for report in reports.values())


class TestStoreAndServeSubcommands:
    def test_store_save_list_info(self, tmp_path, capsys):
        root = tmp_path / "artifacts"
        code = pipeline_main(
            ["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saved ring(5)" in out and "5 classes" in out

        code = pipeline_main(["store", "list", "--store", str(root)])
        assert code == 0
        assert "ring-5" in capsys.readouterr().out

        code = pipeline_main(
            ["store", "info", "--topo", "ring", "--size", "5", "--store", str(root)]
        )
        assert code == 0
        assert "entry verifies" in capsys.readouterr().out

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_store_save_writes_only_meta_and_payload(self, tmp_path, executor, capsys):
        """A bake records no per-class costs: an entry is its two files."""
        root = tmp_path / "artifacts"
        code = pipeline_main(
            ["store", "save", "--topo", "ring", "--size", "5", "--store", str(root),
             "--executor", executor, "--workers", "2"]
        )
        assert code == 0
        capsys.readouterr()
        (entry,) = root.iterdir()
        assert sorted(path.name for path in entry.iterdir()) == ["meta.json", "payload.pkl"]

    def test_store_info_refuses_corrupt_entry(self, tmp_path, capsys):
        root = tmp_path / "artifacts"
        code = pipeline_main(
            ["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)]
        )
        assert code == 0
        capsys.readouterr()
        entry = next(child for child in root.iterdir() if child.is_dir())
        payload = entry / "payload.pkl"
        payload.write_bytes(payload.read_bytes()[:-10])
        code = pipeline_main(["store", "info", "--fingerprint", entry.name, "--store", str(root)])
        assert code == 1
        assert "REFUSED" in capsys.readouterr().err

    def test_store_list_empty(self, tmp_path, capsys):
        code = pipeline_main(["store", "list", "--store", str(tmp_path / "none")])
        assert code == 0
        assert "no artifacts" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "executor",
        [["--executor", "serial"], ["--executor", "process", "--workers", "2"]],
        ids=["serial", "process"],
    )
    def test_delta_baseline_zero_resolves(self, tmp_path, capsys, counter_delta, executor):
        """A pool worker's solves reach the registry too, so the warm
        baseline's zero holds under every executor."""
        root = tmp_path / "artifacts"
        code = pipeline_main(
            ["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)]
        )
        assert code == 0
        with counter_delta("srp.") as solves:
            code = pipeline_main(
                ["delta", "--topo", "ring", "--size", "5", *executor,
                 "--baseline", str(root), "--no-oracle", "--no-revalidate"]
            )
        assert code == 0
        assert solves["srp.scratch_solves"] == 0 and solves["srp.seeded_solves"] > 0
        out = capsys.readouterr().out
        assert "warm baseline" in out and "seeded from the store" in out

    def test_delta_baseline_entry_dir(self, tmp_path, capsys):
        root = tmp_path / "artifacts"
        pipeline_main(["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)])
        capsys.readouterr()
        entry = next(child for child in root.iterdir() if child.is_dir())
        code = pipeline_main(
            ["delta", "--topo", "ring", "--size", "5", "--executor", "serial",
             "--baseline", str(entry), "--no-oracle", "--no-revalidate"]
        )
        assert code == 0
        assert "warm baseline" in capsys.readouterr().out

    def test_delta_baseline_mismatch_refused(self, tmp_path, capsys):
        root = tmp_path / "artifacts"
        pipeline_main(["store", "save", "--topo", "ring", "--size", "5", "--store", str(root)])
        capsys.readouterr()
        code = pipeline_main(
            ["delta", "--topo", "mesh", "--size", "4", "--executor", "serial",
             "--baseline", str(root), "--no-oracle"]
        )
        assert code == 1
        assert "cannot use baseline artifact" in capsys.readouterr().err

    def test_serve_usage_errors(self, capsys):
        code = pipeline_main(["serve", "--topo", "ring", "--family", "ring"])
        assert code == 2
        assert "not both" in capsys.readouterr().err
        code = pipeline_main(["serve", "--family", "all"])
        assert code == 2
        assert "exactly one topology family" in capsys.readouterr().err


SUBCOMMANDS = (
    "compress", "verify", "failures", "delta", "store", "serve",
    "trace", "profile",
)


class TestErrorContract:
    """``main`` turns argparse's exit into a status; it never raises SystemExit."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--verify", "--topo", "ring"],
            ["--failures", "--topo", "ring", "--k", "1"],
            ["--delta", "--topo", "ring"],
            ["--topo", "ring"],
            ["--bogus-flag"],
            ["compress", "--topo", "ring", "--report-out", "report.json"],
            ["store"],
            ["trace"],
            ["profile"],
            ["bench", "history"],
            ["delta", "--topo", "ring", "--no-rebuild-oracle"],
            ["compress", "--topo", "ring", "--build-networks"],
        ],
        ids=[
            "empty", "flat-verify", "flat-failures", "flat-delta", "no-subcommand",
            "bogus-flag", "report-out", "store-needs-action", "trace-needs-action",
            "profile-needs-action", "bench-history-gone", "delta-no-rebuild-oracle-gone",
            "compress-build-networks-gone",
        ],
    )
    def test_usage_errors_return_2(self, argv, capsys):
        assert pipeline_main(argv) == 2
        assert capsys.readouterr().err.startswith("usage: python -m repro.pipeline")

    def test_help_returns_0(self, capsys):
        assert pipeline_main(["--help"]) == 0
        assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help_returns_0(self, command, capsys):
        assert pipeline_main([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(
            f"usage: python -m repro.pipeline {command}"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["compress", "--topo", "ring", "--properties", "reachability"],
            ["compress", "--topo", "ring", "--timeout", "5"],
            ["verify", "--topo", "ring", "--k", "2"],
            ["verify", "--topo", "ring", "--baseline", "artifacts"],
            ["failures", "--topo", "ring", "--changes", "generated"],
            ["delta", "--topo", "ring", "--k", "2"],
        ],
        ids=[
            "compress-properties", "compress-timeout", "verify-k", "verify-baseline",
            "failures-changes", "delta-k",
        ],
    )
    def test_another_subcommands_flag_is_rejected(self, argv, capsys):
        assert pipeline_main(argv) == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--scheduler", "static"], ["--cost-store", "artifacts"], ["--batch-size", "3"]],
        ids=["scheduler", "cost-store", "batch-size"],
    )
    @pytest.mark.parametrize("command", ["compress", "verify", "failures", "delta"])
    def test_deleted_pool_options_are_rejected(self, command, option, capsys):
        """One pool path: no scheduler to pick, no cost store to warm it,
        no bundle size to force."""
        assert pipeline_main([command, "--topo", "ring"] + option) == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["compress"], "--syntactic"),
            (["verify"], "--syntactic"),
            (["failures"], "--syntactic"),
            (["delta"], "--syntactic"),
            (["store", "save"], "--syntactic"),
            (["serve"], "--syntactic"),
            (["store", "save"], "--no-compress"),
        ],
        ids=[
            "compress-syntactic", "verify-syntactic", "failures-syntactic", "delta-syntactic",
            "store-save-syntactic", "serve-syntactic", "store-save-no-compress",
        ],
    )
    def test_deleted_key_and_compression_modes_are_rejected(
        self, command, flag, tmp_path, capsys
    ):
        """One configuration: BDD policy keys and every class compressed,
        so a store entry is a function of the network alone."""
        argv = command + ["--topo", "ring", flag]
        if command[0] in ("store", "serve"):
            argv += ["--store", str(tmp_path / "artifacts")]
        assert pipeline_main(argv) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["compress"], ["verify"], ["failures"], ["delta"], ["store", "save"]]
    )
    def test_thread_executor_is_not_a_choice(self, command, tmp_path, capsys):
        argv = command + ["--topo", "ring", "--executor", "thread"]
        if command[0] == "store":
            argv += ["--store", str(tmp_path / "artifacts")]
        assert pipeline_main(argv) == 2
        assert (
            "invalid choice: 'thread' (choose from 'auto', 'serial', 'process')"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", [["compress"], ["failures"], ["delta"], ["store", "save"]])
    def test_topo_and_family_conflict(self, command, tmp_path, capsys):
        argv = command + ["--topo", "ring", "--family", "mesh"]
        if command[0] == "store":
            argv += ["--store", str(tmp_path / "artifacts")]
        assert pipeline_main(argv) == 2
        assert "not both" in capsys.readouterr().err
