"""Tests for the CLI (repro.cli)."""

import pytest

from repro.cli import build_parser, main, parse_key
from repro.flowkeys.key import FIVE_TUPLE


class TestParseKey:
    def test_single_field(self):
        assert parse_key("SrcIP") == FIVE_TUPLE.partial("SrcIP")

    def test_prefix(self):
        assert parse_key("SrcIP/24") == FIVE_TUPLE.partial(("SrcIP", 24))

    def test_combination(self):
        assert parse_key("SrcIP+DstIP") == FIVE_TUPLE.partial("SrcIP", "DstIP")

    def test_mixed(self):
        assert parse_key("SrcIP/16+DstPort") == FIVE_TUPLE.partial(
            ("SrcIP", 16), "DstPort"
        )

    def test_unknown_field_raises(self):
        with pytest.raises(KeyError):
            parse_key("Nope")


class TestCommands:
    def test_generate_then_evaluate(self, tmp_path, capsys):
        path = str(tmp_path / "trace.csv")
        assert main(
            [
                "generate",
                path,
                "--packets",
                "8000",
                "--flows",
                "1500",
                "--seed",
                "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        assert main(
            [
                "evaluate",
                path,
                "--memory-kb",
                "64",
                "--threshold",
                "1e-3",
                "--key",
                "SrcIP",
                "--key",
                "SrcIP/24",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "SrcIP/32" in out
        assert "SrcIP/24" in out

    def test_measure_outputs_topk(self, tmp_path, capsys):
        path = str(tmp_path / "trace.csv")
        main(["generate", path, "--packets", "5000", "--flows", "800"])
        capsys.readouterr()
        assert main(
            ["measure", path, "--memory-kb", "64", "--top", "3", "--key", "DstIP"]
        ) == 0
        out = capsys.readouterr().out
        assert "top 3 flows on DstIP/32" in out

    def test_evaluate_sharded(self, tmp_path, capsys):
        path = str(tmp_path / "trace.csv")
        main(
            ["generate", path, "--packets", "6000", "--flows", "1200", "--seed", "4"]
        )
        capsys.readouterr()
        assert main(
            [
                "evaluate",
                path,
                "--memory-kb",
                "64",
                "--threshold",
                "1e-3",
                "--engine",
                "numpy",
                "--shards",
                "2",
                "--key",
                "SrcIP",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded 2 worker(s)" in out
        assert "aggregate" in out
        assert "SrcIP/32" in out

    def test_measure_sharded_round_robin(self, tmp_path, capsys):
        path = str(tmp_path / "trace.csv")
        main(["generate", path, "--packets", "4000", "--flows", "700"])
        capsys.readouterr()
        assert main(
            [
                "measure",
                path,
                "--memory-kb",
                "64",
                "--shards",
                "2",
                "--shard-strategy",
                "round-robin",
                "--top",
                "3",
                "--key",
                "DstIP",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sharded 2 worker(s)" in out
        assert "top 3 flows on DstIP/32" in out

    def test_serve_governed_starts_within_budget(self, tmp_path, capsys):
        # --memory-kb 200 buys l=6023; the 16 KB governor's max_l is 481,
        # so the start width must come from the governor's budget.
        path = str(tmp_path / "trace.csv")
        main(["generate", path, "--packets", "4000", "--flows", "700"])
        capsys.readouterr()
        assert main(
            [
                "serve",
                path,
                "--memory-kb",
                "200",
                "--governor",
                "16",
                "--engine",
                "numpy",
                "--epoch-packets",
                "1500",
                "--port",
                "0",
            ]
        ) == 0
        assert "shut down with epochs [0, 1, 2]" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_zipf_profile(self, tmp_path, capsys):
        path = str(tmp_path / "z.csv")
        assert main(
            [
                "generate",
                path,
                "--profile",
                "zipf",
                "--packets",
                "2000",
                "--flows",
                "300",
                "--alpha",
                "1.3",
            ]
        ) == 0
