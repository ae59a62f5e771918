"""Unit tests for the platform specification."""

from dataclasses import replace

import pytest

from repro.hw.device import DeviceSpec
from repro.hw.platform import CPUSpec, PlatformSpec


class TestCPUSpec:
    def test_cycles_to_seconds(self):
        cpu = CPUSpec(frequency_hz=2e9)
        assert cpu.cycles_to_seconds(2e9) == 1.0

    def test_table_i_defaults(self):
        cpu = CPUSpec()
        assert cpu.cores == 6
        assert cpu.frequency_hz == 1.9e9
        assert cpu.l2_bytes == 256 * 1024
        assert cpu.l3_bytes == 12 * 1024 * 1024


class TestGPUSpec:
    """The platform's GPU: the ``gpu`` registry entry as a DeviceSpec."""

    def test_utilization_saturates(self):
        gpu = PlatformSpec().gpu
        assert gpu.utilization(10_000) > 0.97
        assert gpu.utilization(gpu.half_saturation_batch) == pytest.approx(0.5)

    def test_utilization_monotonic(self):
        gpu = PlatformSpec().gpu
        values = [gpu.utilization(n) for n in (1, 8, 64, 512, 4096)]
        assert values == sorted(values)

    def test_zero_batch_floor(self):
        assert PlatformSpec().gpu.utilization(0) > 0

    def test_persistent_dispatch_cheaper_than_launch(self):
        gpu = PlatformSpec().gpu
        assert gpu.persistent_dispatch_seconds < gpu.launch_seconds


class TestPCIeSpec:
    """The GPU's PCIe link: the default LinkSpec."""

    def test_zero_bytes_free(self):
        assert PlatformSpec().gpu.link.transfer_seconds(0) == 0.0

    def test_latency_floor(self):
        pcie = PlatformSpec().gpu.link
        assert pcie.transfer_seconds(1) >= pcie.latency_seconds

    def test_bandwidth_term(self):
        pcie = PlatformSpec().gpu.link
        small = pcie.transfer_seconds(1_000)
        large = pcie.transfer_seconds(1_000_000)
        assert large > small
        expected = pcie.latency_seconds + 1_000_000 * 8 / pcie.bandwidth_bps
        assert large == pytest.approx(expected)


class TestPlatformSpec:
    def test_total_cores(self):
        assert PlatformSpec().total_cores == 24
        assert PlatformSpec.small().total_cores == 6

    def test_processor_ids(self):
        platform = PlatformSpec()
        assert platform.cpu_processor_ids(3) == ["cpu0", "cpu1", "cpu2"]
        assert platform.gpu_processor_ids() == ["gpu0", "gpu1"]

    def test_requesting_too_many_cores_rejected(self):
        with pytest.raises(ValueError):
            PlatformSpec.small().cpu_processor_ids(100)

    def test_paper_testbed_matches_table_i(self):
        platform = PlatformSpec.paper_testbed()
        assert platform.sockets == 4
        assert platform.gpus == 2
        assert platform.gpu.memory_bandwidth_bps == pytest.approx(336.5e9)


class TestImpossiblePlatforms:
    @pytest.mark.parametrize("overrides,field", [
        ({"sockets": 0}, "sockets"),
        ({"sockets": -2}, "sockets"),
        ({"cpu": CPUSpec(cores=0)}, "cpu.cores"),
        ({"gpus": -1}, "gpus"),
        ({"gpu": DeviceSpec(device_id="gpu", kind="gpu")}, "gpu"),
    ], ids=["no-sockets", "negative-sockets", "no-cores",
            "negative-gpus", "gpu-without-link"])
    def test_rejected_at_construction(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            PlatformSpec(**overrides)
        with pytest.raises(ValueError, match=field):
            replace(PlatformSpec.small(), **overrides)
