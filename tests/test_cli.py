"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import main
from repro.hw import costs


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
        assert main(["experiments", "run", "fig05", "--jobs", "2"]) == 0
        assert "Fig. 5" in capsys.readouterr().out

    def test_experiments_run_recomputes_every_point(self, tmp_path,
                                                    monkeypatch, capsys):
        """A second run computes its rows again, so a changed price
        shows in its table, and no run writes to its directory."""
        monkeypatch.chdir(tmp_path)
        assert main(["experiments", "run", "fig06"]) == 0
        first = capsys.readouterr().out
        monkeypatch.setitem(costs._CPU_LAWS, "IPv4Lookup",
                            costs._law_const(2000.0))
        assert main(["experiments", "run", "fig06"]) == 0
        assert capsys.readouterr().out != first
        assert list(tmp_path.iterdir()) == []
        for argv in (["experiments", "run", "fig06", "--no-cache"],
                     ["experiments", "run", "fig06", "--cache-dir", "c"],
                     ["chaos", "--no-cache"],
                     ["chaos", "--cache-dir", "c"]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2, argv
        assert list(tmp_path.iterdir()) == []

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

    def write_config(self, tmp_path):
        config = tmp_path / "pipeline.click"
        config.write_text("""
            src :: FromDevice(eth0);
            c   :: Counter();
            dst :: ToDevice(eth1);
            src -> c -> dst;
        """)
        return config

    def test_config_run(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["config", "run", str(config),
                     "--batches", "20"]) == 0
        out = capsys.readouterr().out
        assert "ElementGraph" in out
        assert "Gbps" in out

    # ``--packet-size 0`` used to mean IMIX, deploy's default.
    BAD_TRAFFIC = [("--load", "nan"), ("--load", "0"),
                   ("--packet-size", "10"), ("--packet-size", "0")]

    @pytest.mark.parametrize("flag,value", BAD_TRAFFIC)
    def test_deploy_rejects_bad_traffic(self, flag, value, capsys):
        assert main(["deploy", "-c", "firewall,nat", flag, value]) == 2
        assert f"invalid {flag}" in capsys.readouterr().err

    BAD_OVERLOAD = {
        "burst-nan": (["--arrivals", "mmpp", "--burst", "nan"],
                      "invalid arrival process"),
        "slo-nan": (["--slo-ms", "nan"], "invalid overload config"),
        "deadline-nan": (["--drop-policy", "deadline:nan",
                          "--queue-limit", "2"],
                         "invalid overload config"),
    }

    @pytest.mark.parametrize("name", sorted(BAD_OVERLOAD))
    def test_deploy_rejects_nan_overload_flags(self, name, capsys):
        flags, message = self.BAD_OVERLOAD[name]
        assert main(["deploy", "-c", "firewall", *flags]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", BAD_TRAFFIC)
    def test_config_run_rejects_bad_traffic(self, flag, value, tmp_path,
                                            capsys):
        config = self.write_config(tmp_path)
        assert main(["config", "run", str(config), flag, value]) == 2
        assert f"invalid {flag}" in capsys.readouterr().err

    BAD_BATCHES = [("--batch", "0"), ("--batch", "-5"),
                   ("--batches", "0"), ("--batches", "-3")]

    @pytest.mark.parametrize("flag,value", BAD_BATCHES)
    def test_deploy_rejects_bad_batches(self, flag, value, capsys):
        assert main(["deploy", "-c", "firewall,nat", flag, value]) == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", BAD_BATCHES)
    def test_config_run_rejects_bad_batches(self, flag, value, tmp_path,
                                            capsys):
        config = self.write_config(tmp_path)
        assert main(["config", "run", str(config), flag, value]) == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_validate_rejects_bad_batch(self, value, capsys):
        assert main(["validate", "--chains", "1", "--batch", value]) == 2
        assert "--batch must be at least 1" in capsys.readouterr().err

    BAD_CONFIGS = {
        "unknown-element": "src :: FromDevice(eth0);\n"
                           "w :: WarpDrive();\nsrc -> w;",
        "malformed-hop": "src :: FromDevice(eth0);\nsrc -> ;",
        "unknown-keyword": "c :: Counter(bogus=1);",
        "regex-rules": "m :: PatternMatch(regexes=evil);",
        "linear-matcher": "fw :: AclClassify(rules=50, matcher=linear);",
        "fib-without-prefixes": "r :: IPv4Lookup(prefixes=0);",
        "fib6-without-prefixes": "r :: IPv6Lookup(prefixes=0);",
    }

    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_config_run_rejects_bad_config(self, name, tmp_path, capsys):
        config = tmp_path / "bad.click"
        config.write_text(self.BAD_CONFIGS[name])
        assert main(["config", "run", str(config)]) == 2
        assert f"cannot load {config}: " in capsys.readouterr().err

    def test_config_run_rejects_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.click"
        assert main(["config", "run", str(missing)]) == 2
        assert f"cannot load {missing}: " in capsys.readouterr().err

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__
        assert f"repro {__version__}" in capsys.readouterr().out


class TestPlatformShow:
    SMALL = """\
platform: 1 socket(s) x 6 cores, 1 GPU(s), 0 extra device(s)
cpu0 kind=cpu host
cpu1 kind=cpu host
cpu2 kind=cpu host
cpu3 kind=cpu host
cpu4 kind=cpu host
cpu5 kind=cpu host
gpu0 kind=gpu launch=6.0us/1.2us speedup=10+5log2(1+I) half_batch=128 \
link=pcie@12.0GB/s
"""
    #: sha256 of the Table I inventory (24 cores, 2 GPUs) and of the
    #: same plus a SmartNIC and every registered kind's defaults.
    DIGESTS = {
        ():
            "a7901128a7dec08b0fa72f01494bdd100349547b9ac58fd258bff9d27b36af35",
        ("--smartnic", "--kinds"):
            "a430ddf7f6e086b72a9c7de7ac984a9522e98f10126dc9490fcc8f5d60acf9b2",
    }

    def test_small_platform(self, capsys):
        assert main(["platform", "show", "--sockets", "1",
                     "--gpus", "1"]) == 0
        assert capsys.readouterr().out == self.SMALL

    @pytest.mark.parametrize("flags", sorted(DIGESTS))
    def test_output_unchanged(self, flags, capsys):
        assert main(["platform", "show", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            self.DIGESTS[flags]

    @pytest.mark.parametrize("flag,value,field", [
        ("--sockets", "-2", "sockets"),
        ("--sockets", "0", "sockets"),
        ("--gpus", "-1", "gpus"),
    ])
    def test_impossible_platform_rejected(self, flag, value, field,
                                          capsys):
        assert main(["platform", "show", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"invalid platform: {field}")


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

    def test_trace_renders_older_sim_spans_as_stages_only(self, tmp_path,
                                                          capsys):
        """A trace written with a simulated-time span still renders;
        the table lists its wall-clock stages only, and there is no
        option to list the other spans."""
        path = tmp_path / "older.ndjson"
        path.write_text(
            '{"name": "older", "type": "trace", "version": 1}\n'
            '{"attrs": {}, "clock": "wall", "end": 2.0, "id": 0, '
            '"name": "simulate", "parent": null, "start": 0.0, '
            '"type": "span"}\n'
            '{"attrs": {"events": 5}, "clock": "sim", "end": 1e-4, '
            '"id": 1, "name": "node:fw/rx", "parent": 0, "start": 0.0, '
            '"type": "span"}\n')
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace 'older': 1 spans, 2000.00 ms")
        assert "simulate" in out and "node:" not in out
        with pytest.raises(SystemExit):
            main(["trace", str(path), "--sim-spans", "3"])

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

    @pytest.mark.parametrize("nodes", ["2", "0", "-1"])
    def test_validate_rejects_too_few_partition_nodes(self, nodes,
                                                      capsys):
        """Random oracle graphs have at least 3 nodes; fewer used to
        die in ``randint`` with exit 1, the failed-check code."""
        assert main(["validate", "--chains", "1",
                     "--partition-nodes", nodes]) == 2
        assert f"--partition-nodes {nodes} is below" in \
            capsys.readouterr().err

    CHECKS_NOTHING = [("--packets", "0"), ("--packets", "-5"),
                      ("--max-len", "1"), ("--max-len", "0"),
                      ("--chains", "-1"), ("--partition-graphs", "-2"),
                      ("--engine-runs", "-1")]

    @pytest.mark.parametrize("flag,value", CHECKS_NOTHING)
    def test_validate_rejects_a_check_of_nothing(self, flag, value,
                                                 capsys):
        """These used to run nothing in their stage, or draw 2-NF
        chains for a ``--max-len`` below 2, and report every check
        passed."""
        assert main(["validate", "--chains", "1", "--partition-graphs",
                     "0", "--engine-runs", "0", flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "all checks passed" not in captured.out

    def test_validate_zero_skips_a_stage(self, capsys):
        assert main(["validate", "--chains", "0", "--partition-graphs",
                     "0", "--engine-runs", "0"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_validate_accepts_the_partition_node_floor(self, capsys):
        assert main(["validate", "--chains", "0",
                     "--partition-graphs", "2", "--partition-nodes", "3",
                     "--engine-runs", "0"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_validate_verbose_prints_every_check(self, capsys):
        code = main(["validate", "--chains", "1", "--seed", "2",
                     "--packets", "32", "--partition-graphs", "1",
                     "--partition-nodes", "6", "--engine-runs", "1",
                     "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out
        assert "partition oracle[" in out
