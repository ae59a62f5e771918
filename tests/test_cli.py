"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestListing:
    def test_nf_list(self, capsys):
        assert main(["nf", "list"]) == 0
        out = capsys.readouterr().out
        assert "firewall" in out
        assert "ipsec" in out
        assert "Table II" in out

    def test_elements(self, capsys):
        assert main(["elements"]) == 0
        out = capsys.readouterr().out
        assert "FromDevice" in out
        assert "AclClassify" in out

    def test_experiments_list(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out
        assert "fig17" in out


class TestRun:
    def test_experiments_run_tables(self, capsys):
        assert main(["experiments", "run", "tables"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_experiments_run_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiments", "run", "fig99"])

    def test_experiments_run_parallel_no_cache(self, capsys):
        assert main(["experiments", "run", "fig05",
                     "--jobs", "2", "--no-cache"]) == 0
        assert "Fig. 5" in capsys.readouterr().out

    def test_experiments_run_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["experiments", "run", "fig05",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert list(cache_dir.glob("*.json")), "no cached results"
        assert main(argv) == 0          # warm run, served from disk
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv", [
        ["experiments", "run", "tables", "--jobs", "0"],
        ["chaos", "--jobs", "0"],
    ], ids=["experiments", "chaos"])
    def test_jobs_below_one_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_deploy(self, capsys):
        code = main(["deploy", "-c", "firewall,lb",
                     "--packet-size", "128", "--batches", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "NFCompass plan" in out
        assert "Gbps" in out

    def test_deploy_unknown_nf(self, capsys):
        assert main(["deploy", "-c", "warpdrive"]) == 2
        assert "unknown NF" in capsys.readouterr().err

    def test_config_run(self, tmp_path, capsys):
        config = tmp_path / "pipeline.click"
        config.write_text("""
            src :: FromDevice(eth0);
            c   :: Counter();
            dst :: ToDevice(eth1);
            src -> c -> dst;
        """)
        assert main(["config", "run", str(config),
                     "--batches", "20"]) == 0
        out = capsys.readouterr().out
        assert "ElementGraph" in out
        assert "Gbps" in out

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__
        assert f"repro {__version__}" in capsys.readouterr().out


class TestTrace:
    def test_deploy_writes_trace_and_trace_summarizes(self, tmp_path,
                                                      capsys):
        trace_path = tmp_path / "deploy.ndjson"
        code = main(["deploy", "-c", "firewall,nat",
                     "--packet-size", "128", "--batches", "20",
                     "--trace", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Gbps" in out
        assert str(trace_path) in out
        assert trace_path.exists()

        from repro.obs import Trace
        trace = Trace.read_ndjson(trace_path)
        names = set(trace.stage_names())
        for stage in ("parallelize", "synthesize", "expand",
                      "partition", "simulate"):
            assert stage in names, f"missing {stage!r} span"

        assert main(["trace", str(trace_path)]) == 0
        summary = capsys.readouterr().out
        assert "stage" in summary and "wall ms" in summary
        assert "partition" in summary
        assert "compass.candidates_evaluated" in summary

    def test_deploy_without_trace_writes_nothing(self, tmp_path,
                                                 capsys):
        code = main(["deploy", "-c", "firewall",
                     "--packet-size", "128", "--batches", "10"])
        assert code == 0
        assert "trace:" not in capsys.readouterr().out

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.ndjson")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_rejects_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"type": "mystery"}\n')
        assert main(["trace", str(bad)]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_experiments_run_with_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "exp.ndjson"
        code = main(["experiments", "run", "tables",
                     "--trace", str(trace_path)])
        assert code == 0
        assert trace_path.exists()
        out = capsys.readouterr().out
        assert str(trace_path) in out


class TestValidate:
    def test_validate_passes(self, capsys):
        code = main(["validate", "--chains", "3", "--seed", "0",
                     "--packets", "48", "--partition-graphs", "3",
                     "--partition-nodes", "8", "--engine-runs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "differential" in out
        assert "partition oracle" in out
        assert "all checks passed" in out

    def test_validate_verbose_prints_every_check(self, capsys):
        code = main(["validate", "--chains", "1", "--seed", "2",
                     "--packets", "32", "--partition-graphs", "1",
                     "--partition-nodes", "6", "--engine-runs", "1",
                     "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out
        assert "partition oracle[" in out
