"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestRegions:
    def test_prints_table_and_count(self, capsys):
        assert main(["regions"]) == 0
        output = capsys.readouterr().out
        assert "degenerate" in output and "point region" in output
        assert "6 one-line + 5 two-line + general = 12 shapes" in output


class TestLattice:
    @pytest.mark.parametrize("figure", ["fig2", "fig3", "fig4", "fig5"])
    def test_ascii(self, capsys, figure):
        assert main(["lattice", figure]) == 0
        assert "general" in capsys.readouterr().out

    def test_dot(self, capsys):
        assert main(["lattice", "fig2", "--dot"]) == 0
        output = capsys.readouterr().out
        assert output.startswith("digraph")
        assert '"retroactive" -> "delayed retroactive";' in output

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["lattice", "fig9"])


class TestClassify:
    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "sample.csv"
        path.write_text("tt,vt\n100,95\n200,180\n300,299\n")
        assert main(["classify", str(path)]) == 0
        output = capsys.readouterr().out
        assert "delayed strongly retroactively bounded" in output

    def test_comments_and_headers_skipped(self, tmp_path, capsys):
        path = tmp_path / "sample.csv"
        path.write_text("# comment\ntt,vt,object\n10,10,a\n20,20,a\n")
        assert main(["classify", str(path)]) == 0
        assert "degenerate" in capsys.readouterr().out

    def test_empty_file_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("tt,vt\n")
        assert main(["classify", str(path)]) == 1
        assert "no (tt, vt) rows" in capsys.readouterr().err

    def test_stdin(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("100,95\n200,195\n"))
        assert main(["classify", "-"]) == 0
        assert "observed" in capsys.readouterr().out


class TestWorkload:
    def test_generation(self, capsys):
        assert main(["workload", "archeology"]) == 0
        output = capsys.readouterr().out
        assert "strata" in output
        assert "globally non-increasing" in output

    def test_with_tql(self, capsys):
        assert main(
            ["workload", "ledger", "--tql", "SELECT amount FROM ledger WHERE amount > 4900"]
        ) == 0
        output = capsys.readouterr().out
        assert "result(s)" in output

    def test_long_results_truncated(self, capsys):
        assert main(["workload", "general", "--tql", "SELECT payload FROM general_traffic"]) == 0
        output = capsys.readouterr().out
        assert "more" in output


class TestExplain:
    def test_sequenced_key_timeslice(self, capsys):
        """The acceptance query: a timeslice on the sequenced-key
        monitoring workload prints strategy, pruning decisions, and at
        least three timed spans."""
        assert main(
            ["explain", "monitoring", "SELECT * FROM plant_temperatures VALID AT 100s"]
        ) == 0
        output = capsys.readouterr().out
        assert "strategy  : bounded-tt-window" in output
        assert "decisions :" in output
        assert "pruned" in output
        span_lines = [line for line in output.splitlines() if " ms" in line and "- " in line]
        assert len(span_lines) >= 3

    def test_metrics_snapshot(self, capsys):
        assert main(
            [
                "explain",
                "monitoring",
                "SELECT * FROM plant_temperatures VALID AT 100s",
                "--metrics",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "metrics   :" in output
        assert '"counters"' in output

    def test_no_execute(self, capsys):
        assert main(
            [
                "explain",
                "monitoring",
                "SELECT * FROM plant_temperatures VALID AT 100s",
                "--no-execute",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "strategy  :" in output
        assert "operator:" not in output

    def test_metrics_stay_disabled_after_run(self):
        from repro.observability import metrics

        was = metrics.enabled()
        main(["explain", "monitoring", "SELECT * FROM plant_temperatures VALID AT 100s"])
        assert metrics.enabled() == was


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "rejected" in output
        assert "inferred" in output


class TestRecover:
    def build_log(self, tmp_path):
        from repro.chronos.timestamp import Timestamp
        from repro.relation.element import Element
        from repro.storage.logfile import LogFileEngine

        path = str(tmp_path / "crash.wal")
        engine = LogFileEngine(path)
        engine.append(
            Element(
                element_surrogate=1,
                object_surrogate="obj",
                tt_start=Timestamp(10),
                vt=Timestamp(5),
            )
        )
        engine.close()
        return path

    def tear(self, path, bytes_off=3):
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - bytes_off)

    def test_clean_log_exits_zero(self, tmp_path, capsys):
        path = self.build_log(tmp_path)
        assert main(["recover", path]) == 0
        assert "damage    : none" in capsys.readouterr().out

    def test_recovers_torn_tail(self, tmp_path, capsys):
        path = self.build_log(tmp_path)
        self.tear(path)
        assert main(["recover", path]) == 0
        out = capsys.readouterr().out
        assert "truncated" in out
        import os

        assert os.path.exists(path + ".corrupt")
        # A second pass sees a clean log.
        assert main(["recover", path]) == 0
        assert "damage    : none" in capsys.readouterr().out

    def test_dry_run_reports_damage_without_touching(self, tmp_path, capsys):
        import os

        path = self.build_log(tmp_path)
        self.tear(path)
        size = os.path.getsize(path)
        assert main(["recover", path, "--dry-run"]) == 1
        assert os.path.getsize(path) == size
        assert not os.path.exists(path + ".corrupt")

    def test_unreadable_path_exits_two(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "absent.wal")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestCompact:
    def test_compacts_a_log_file(self, tmp_path, capsys):
        path = TestRecover().build_log(tmp_path)
        assert main(["compact", path, "--segment-size", "2"]) == 0
        assert f"{path}: demoted" in capsys.readouterr().out

    def test_unreadable_path_exits_two(self, tmp_path, capsys):
        assert main(["compact", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_segment_size_below_two_exits_two(self, tmp_path, capsys):
        import os

        path = TestRecover().build_log(tmp_path)
        for size in ("0", "1"):
            assert main(["compact", path, "--segment-size", size]) == 2
            assert "segment size must be at least 2" in capsys.readouterr().err
        assert not os.path.exists(path + ".tier")


class TestRetiredShardedDirectory:
    """Data the deleted sharded serve mode wrote (``shards.manifest`` +
    one log per shard) has no reader any more: say so, exit 2."""

    @pytest.mark.parametrize("command", ["compact", "recover"])
    def test_refused_with_the_upgrade_message(self, command, tmp_path, capsys):
        data = tmp_path / "readings.shards"
        data.mkdir()
        (data / "shards.manifest").write_bytes(b"")
        (data / "shard-000.log").write_bytes(b"")
        assert main([command, str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            "sharded data directories were removed in PR 22; "
            "open them at the previous release and re-ingest"
        ) in captured.err
        assert sorted(entry.name for entry in data.iterdir()) == [
            "shard-000.log",
            "shards.manifest",
        ]


class TestServeFlags:
    def test_reader_pool_flag_is_refused(self, capsys):
        from repro.cli import _build_parser

        parser = _build_parser()
        assert parser.parse_args(["serve", "--port", "0"]).command == "serve"
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["serve", "--reader-threads", "4"])
        assert exit_info.value.code == 2
        assert "--reader-threads" in capsys.readouterr().err
