"""Smoke + headline-shape tests for every paper-figure harness.

Each harness runs at reduced scale; the assertions check the *shape*
claims EXPERIMENTS.md tracks, not absolute numbers.
"""

import pytest

from repro.experiments import (
    fig05_batch_split,
    fig06_offload_ratio,
    fig07_sfc_length,
    fig08_characterization,
    fig14_reorganization,
    fig15_gta,
    fig17_real_sfc,
    load_latency,
    tables,
)
from repro.runner import canonical_fingerprint


class TestFig5:
    def test_split_collapses_throughput(self):
        rows = fig05_batch_split.run(quick=True, stage_counts=[6])
        by_variant = {r.variant: r for r in rows}
        ratio = (by_variant["without_split"].throughput_gbps
                 / by_variant["with_split"].throughput_gbps)
        assert ratio > 1.5  # paper: 2.31x at its configuration

    def test_reorganization_fraction_only_with_split(self):
        rows = fig05_batch_split.run(quick=True, stage_counts=[4])
        by_variant = {r.variant: r for r in rows}
        assert by_variant["with_split"].reorganization_fraction > 0.1
        assert by_variant["without_split"].reorganization_fraction \
            == pytest.approx(0.0, abs=0.01)

    def test_main_renders(self):
        assert "Fig. 5" in fig05_batch_split.main(quick=True)


class TestFig6:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig06_offload_ratio.run(quick=True)

    def test_best_ratios_vary_per_nf(self, rows):
        best = fig06_offload_ratio.best_ratios(rows)
        assert len(set(best.values())) >= 2

    def test_ipsec_optimum_interior(self, rows):
        """Paper: ~70 % beats both extremes for IPsec."""
        best = fig06_offload_ratio.best_ratios(rows)
        assert 0.5 <= best["ipsec"] <= 0.9

    def test_ipsec_gpu_beats_cpu(self, rows):
        ipsec = {r.offload_ratio: r.throughput_gbps
                 for r in rows if r.nf_type == "ipsec"}
        assert ipsec[1.0] > ipsec[0.0]


class TestFig7:
    def test_acceleration_shrinks_with_chain_length(self):
        rows = fig07_sfc_length.run(quick=True)
        accel = fig07_sfc_length.acceleration_by_case(rows)
        assert accel["A"] > accel["C"]
        assert accel["A"] > accel["D"]

    def test_fixed_ratio_advantage_inconsistent(self):
        """Paper: "the same offload ratio cannot always keep the
        consistent performance in different scenarios" — the 70 %
        ratio's advantage over the extremes varies widely by chain."""
        rows = fig07_sfc_length.run(quick=True)
        by_case = {}
        for row in rows:
            by_case.setdefault(row.case, {})[row.policy] = (
                row.throughput_gbps
            )
        advantages = []
        for case, values in by_case.items():
            advantages.append(values["70%-offload"]
                              / max(values["cpu-only"],
                                    values["gpu-only"]))
        spread = max(advantages) / min(advantages)
        assert spread > 1.08


class TestFig8:
    @pytest.fixture(scope="class")
    def sweep(self):
        return fig08_characterization.run_batch_sweep(
            quick=True, batch_sizes=(32, 64, 256, 1024))

    def test_gpu_throughput_grows_with_batch(self, sweep):
        ipsec_gpu = sorted(
            (r.batch_size, r.throughput_gbps) for r in sweep
            if r.nf_type == "ipsec" and r.platform == "gpu"
        )
        assert ipsec_gpu[-1][1] > ipsec_gpu[0][1]

    def test_dpi_match_gap(self, sweep):
        gap = fig08_characterization.dpi_match_gap(sweep)
        assert gap > 2.5  # paper: 4-5x

    def test_dpi_cpu_knee(self, sweep):
        assert fig08_characterization.dpi_cpu_knee(sweep)

    def test_interference_findings(self):
        _matrix, averages = fig08_characterization.run_interference()
        assert max(averages, key=averages.get) == "ids"
        assert min(averages, key=averages.get) == "firewall"
        assert averages["ids"] == pytest.approx(0.222, abs=0.04)


class TestFig14:
    #: ``canonical_fingerprint`` of the fixture's rows and of the
    #: full-scale rows, recorded while a capacity sweep still set each
    #: group's shared load.
    ROWS = \
        "2978b8435fe717e145b6a6b20287ec58cfe112adbed9751a7c98c47ca9b7ee33"
    FULL_ROWS = \
        "d0aff0e2ce92e0c43d53d5b56272e3d58e05b0f98d57766fcb3b2261a3c08845"

    @pytest.fixture(scope="class")
    def rows(self):
        return fig14_reorganization.run(quick=True)

    def test_rows_unchanged(self, rows):
        assert canonical_fingerprint(rows) == self.ROWS

    @pytest.mark.slow
    def test_full_scale_rows_unchanged(self):
        rows = fig14_reorganization.run(quick=False)
        assert canonical_fingerprint(rows) == self.FULL_ROWS

    def test_parallelization_reduces_latency(self, rows):
        for nf_type in ("firewall", "ipsec", "ids"):
            reduction = fig14_reorganization.latency_reduction(
                rows, nf_type, "cpu", "b")
            assert reduction > 0.2

    def test_throughput_maintained_by_parallelization(self, rows):
        lookup = {(r.nf_type, r.platform, r.config): r for r in rows}
        for nf_type in ("firewall", "ipsec", "ids"):
            a = lookup[(nf_type, "cpu", "a")].throughput_gbps
            b = lookup[(nf_type, "cpu", "b")].throughput_gbps
            assert b > 0.5 * a

    def test_synthesis_beats_branching_on_gpu_latency(self, rows):
        """Paper: config d latency is 14-30 % below config b on GPU."""
        lookup = {(r.nf_type, r.platform, r.config): r for r in rows}
        wins = 0
        for nf_type in ("firewall", "ipsec", "ids"):
            b = lookup[(nf_type, "gpu", "b")].latency_ms
            d = lookup[(nf_type, "gpu", "d")].latency_ms
            if d < b:
                wins += 1
        assert wins >= 2

    def test_effective_lengths(self, rows):
        lengths = {(r.config): r.effective_length for r in rows}
        assert lengths["a"] == 4
        assert lengths["b"] == 1
        assert lengths["c"] == 2
        assert lengths["d"] == 1


class TestFig15:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig15_gta.run(quick=True)

    def test_gta_near_optimal_except_ipv4(self, rows):
        fractions = fig15_gta.gta_vs_optimal(rows)
        for setup, fraction in fractions.items():
            if setup == "ipv4":
                continue  # documented deviation (see EXPERIMENTS.md)
            assert fraction >= 0.85, setup

    def test_gta_matches_cpu_only_for_ipv4(self, rows):
        """Paper: GTA does not offload IPv4 at all."""
        by_system = {r.system: r for r in rows if r.setup == "ipv4"}
        assert by_system["gta"].throughput_gbps == pytest.approx(
            by_system["cpu-only"].throughput_gbps, rel=0.02)
        assert by_system["gta"].latency_ms == pytest.approx(
            by_system["cpu-only"].latency_ms, rel=0.05)

    def test_gta_beats_cpu_only_for_heavy_nfs(self, rows):
        by_key = {(r.setup, r.system): r.throughput_gbps for r in rows}
        for setup in ("ipsec", "ids", "ipsec+ids"):
            assert by_key[(setup, "gta")] > 2 * by_key[(setup,
                                                        "cpu-only")]

    def test_latencies_bounded(self, rows):
        """Paper: GTA latency stays under ~4 ms."""
        for row in rows:
            if row.system == "gta":
                assert row.latency_ms < 4.0


class TestFig17:
    #: ``canonical_fingerprint`` of the fixture's rows.  The 10 000-rule
    #: cell measures latency at the load the 200-rule cell sets.
    ROWS = \
        "159081398904136b6bd186192a16e3015dbed1c1539e9bf5c70c8b2c61a1cebb"

    @pytest.fixture(scope="class")
    def rows(self):
        return fig17_real_sfc.run(quick=True, acl_sizes=(200, 10000),
                                  packet_sizes=(64,))

    def test_rows_unchanged(self, rows):
        assert canonical_fingerprint(rows) == self.ROWS

    def test_fastclick_collapses_at_10k_rules(self, rows):
        retention = fig17_real_sfc.throughput_retention(rows)
        assert retention["fastclick"][10000] < 0.6  # paper: -84 %

    def test_nba_degrades_less_than_fastclick(self, rows):
        retention = fig17_real_sfc.throughput_retention(rows)
        assert retention["nba"][10000] > retention["fastclick"][10000]
        assert retention["nba"][10000] < 0.95

    def test_nfcompass_stays_flat(self, rows):
        retention = fig17_real_sfc.throughput_retention(rows)
        assert retention["nfcompass"][10000] > 0.9

    def test_nfcompass_latency_advantage_grows_with_acl(self, rows):
        """Paper: 1.4-9x lower latency, the gap widening with ACL
        size (FastClick's ACL-10000 latency is an order of magnitude
        above its ACL-200 latency).  At small ACLs the systems are
        comparable."""
        advantage = fig17_real_sfc.latency_advantage(rows)
        small = advantage[(200, 64)]
        large = advantage[(10000, 64)]
        for system in ("fastclick", "nba"):
            assert small[system] > 0.7  # comparable at ACL 200
            assert large[system] > small[system]
        assert large["fastclick"] > 4.0  # overload blow-up

    def test_fastclick_latency_explodes_at_10k(self, rows):
        by_key = {(r.system, r.acl_rules): r for r in rows}
        assert by_key[("fastclick", 10000)].latency_ms > \
            5 * by_key[("fastclick", 200)].latency_ms

    def test_nfcompass_latency_variance_lower(self, rows):
        by_key = {(r.system, r.acl_rules): r for r in rows}
        assert by_key[("nfcompass", 10000)].latency_std_us < \
            by_key[("fastclick", 10000)].latency_std_us


@pytest.mark.slow
class TestLoadLatencyRows:
    """``canonical_fingerprint`` of each load-latency sweep at quick and
    full scale, recorded while a capacity sweep still set every point's
    load."""

    ROWS = {
        ("run", True):
            "41e14caa2c6f6103a86dd04642ccbf8f79e4257860aac6cc3c2e8c6c9330a76c",
        ("run_burstiness", True):
            "96d2dc6fc0d43ffd7459597920066bb732349b891025812c07a952ff9c5b4e28",
        ("run_overload", True):
            "b2d7da813a2bcf358b4a3210499693253ddcf9f8911e2ec78cce3f3df3d3688c",
        ("run", False):
            "a016bd8bc18a72f91907bcf006e3c3e805f67d8c36aff5c02c8c404b93151ff8",
        ("run_burstiness", False):
            "3fa411b37b97df1850ab2c17c5d6d9666b042ce8cb08af309834910bb9630938",
        ("run_overload", False):
            "cf1595f913a33b65093f3768ff1a538fe684569530796adc1fc28807637a6a52",
    }

    @pytest.mark.parametrize("sweep,quick", sorted(ROWS))
    def test_rows_unchanged(self, sweep, quick):
        rows = getattr(load_latency, sweep)(quick=quick)
        assert canonical_fingerprint(rows) == self.ROWS[sweep, quick]


class TestLoadLatencyKnee:
    @staticmethod
    def row(fraction, latency_ms):
        return load_latency.LoadLatencyRow(
            system="nfcompass", load_fraction=fraction, offered_gbps=1.0,
            latency_ms=latency_ms, latency_p50_ms=latency_ms,
            latency_p95_ms=latency_ms, latency_p99_ms=latency_ms)

    def test_note_names_the_loads_it_divides(self):
        rows = [self.row(0.5, 2.0), self.row(1.1, 3.0), self.row(1.3, 9.0)]
        assert load_latency.knee_sharpness(rows, "nfcompass") == 4.5
        assert load_latency.knee_note(rows) == (
            "knee sharpness (latency at 130% / 50% load): nfcompass: 4.5x")


class TestTables:
    def test_table2_renders_paper_rows(self):
        rows = tables.table2_rows()
        assert ["probe", "Y/N", "N/N", "N", "N"] in rows
        assert ["wanopt", "Y/Y", "Y/Y", "Y", "Y"] in rows

    def test_table3_has_all_pairs(self):
        rows = tables.table3_rows()
        assert len(rows) == 49  # 7 x 7

    def test_main_renders(self):
        text = tables.main()
        assert "Table II" in text
        assert "Table III" in text
