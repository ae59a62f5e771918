"""Unit tests for the device registry and platform inventory."""

import math

import pytest

from repro.hw import (
    CPU_KIND,
    DEFAULT_HOST_DEVICE,
    GPU_KIND,
    SMARTNIC_KIND,
    DeviceSpec,
    LinkSpec,
    device_kind_defaults,
    device_kinds,
    make_device,
    register_device_kind,
    smartnic_device,
)
from repro.elements.offload import OffloadableElement
from repro.hw.costs import BatchStats, CostModel
from repro.hw.platform import PlatformSpec
from repro.nf.catalog import NF_CATALOG, make_nf


class TestLinkSpec:
    def test_zero_bytes_free(self):
        assert LinkSpec().transfer_seconds(0) == 0.0

    def test_latency_floor(self):
        link = LinkSpec()
        assert link.transfer_seconds(1) >= link.latency_seconds

    def test_default_matches_pcie(self):
        assert LinkSpec().name == "pcie"
        assert PlatformSpec().gpu.link == LinkSpec()


class TestDeviceSpec:
    def test_host_has_no_link(self):
        host = DeviceSpec(device_id=DEFAULT_HOST_DEVICE, kind=CPU_KIND)
        assert host.is_host
        assert host.link is None

    def test_utilization_saturates(self):
        device = make_device(GPU_KIND, "gpu0")
        assert device.utilization(10_000) > 0.97
        assert device.utilization(device.half_saturation_batch) == \
            pytest.approx(0.5)

    def test_supports_defaults_to_everything(self):
        device = make_device(GPU_KIND, "gpu0")
        assert device.supports("anything")

    def test_supported_elements_restricts(self):
        device = make_device(GPU_KIND, "gpu0",
                             supported_elements=("match",))
        assert device.supports("match")
        assert not device.supports("encrypt")

    def test_with_id(self):
        device = make_device(SMARTNIC_KIND, "nic0").with_id("nic7")
        assert device.device_id == "nic7"
        assert device.kind == SMARTNIC_KIND

    def test_describe_mentions_id_and_kind(self):
        text = smartnic_device().describe()
        assert "nic0" in text
        assert SMARTNIC_KIND in text


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = device_kinds()
        for kind in (CPU_KIND, GPU_KIND, SMARTNIC_KIND):
            assert kind in kinds

    def test_defaults_are_copies(self):
        first = device_kind_defaults(SMARTNIC_KIND)
        first["launch_seconds"] = 123.0
        assert device_kind_defaults(SMARTNIC_KIND)["launch_seconds"] \
            != 123.0

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            device_kind_defaults("quantum")
        with pytest.raises(KeyError):
            make_device("quantum", "q0")

    def test_register_new_kind_purely_as_data(self):
        from repro.hw import device as device_module
        register_device_kind("test-fpga", {
            "launch_seconds": 5e-6,
            "base_speedup": 2.0,
            "link": LinkSpec(name="testdma"),
        })
        try:
            device = make_device("test-fpga", "fpga0")
            assert device.kind == "test-fpga"
            assert device.link.name == "testdma"
            assert not device.is_host
        finally:
            device_module._DEVICE_KINDS.pop("test-fpga", None)
        assert "test-fpga" not in device_kinds()

    def test_duplicate_registration_needs_replace_flag(self):
        defaults = device_kind_defaults(SMARTNIC_KIND)
        with pytest.raises(ValueError):
            register_device_kind(SMARTNIC_KIND, defaults)
        register_device_kind(SMARTNIC_KIND, defaults,
                             replace_existing=True)

    def test_override_wins_over_kind_default(self):
        device = make_device(SMARTNIC_KIND, "nic0", base_speedup=9.0)
        assert device.base_speedup == 9.0


class TestPlatformInventory:
    def test_default_platform_devices(self):
        platform = PlatformSpec()
        ids = platform.device_ids()
        assert DEFAULT_HOST_DEVICE in ids
        assert "gpu0" in ids

    def test_with_smartnic_adds_device(self):
        platform = PlatformSpec.small().with_smartnic()
        assert "nic0" in platform.device_ids()
        assert platform.device_kind("nic0") == SMARTNIC_KIND
        groups = platform.offload_device_groups()
        assert "nic0" in groups[SMARTNIC_KIND]
        assert groups["gpu"]

    def test_unknown_device_raises_with_inventory(self):
        platform = PlatformSpec.small()
        with pytest.raises(KeyError) as excinfo:
            platform.device("tpu3")
        assert "tpu3" in str(excinfo.value)

    def test_duplicate_extra_device_rejected(self):
        nic = smartnic_device("nic0")
        with pytest.raises(ValueError):
            PlatformSpec.small().with_devices(nic, nic)

    def test_host_extra_device_rejected(self):
        host = DeviceSpec(device_id="cpu9", kind=CPU_KIND)
        with pytest.raises(ValueError):
            PlatformSpec.small().with_devices(host)

    def test_gpu_device_spec_mirrors_gpu(self):
        platform = PlatformSpec()
        device = platform.device("gpu0")
        assert device == platform.gpu.with_id("gpu0")
        assert device.kind == GPU_KIND
        assert device.link.name == "pcie"
        assert math.isfinite(device.cache_bytes)

    def test_describe_devices_lists_everything(self):
        text = PlatformSpec.small().with_smartnic().describe_devices()
        assert "gpu0" in text
        assert "nic0" in text


class TestOnePath:
    """The platform's ``gpu`` is the registry's, and every id resolves
    to one spec whichever layer asks."""

    @pytest.mark.parametrize("platform", [
        PlatformSpec(), PlatformSpec.small().with_smartnic(),
    ], ids=["table-i", "small+smartnic"])
    def test_cost_model_resolves_through_the_platform(self, platform):
        cost = CostModel(platform)
        for device_id in platform.device_ids():
            assert cost.device_for(device_id) == platform.device(device_id)

    def test_platform_gpu_is_the_registry_entry(self):
        gpu = PlatformSpec().gpu
        assert gpu.kind == GPU_KIND
        for name, value in device_kind_defaults(GPU_KIND).items():
            assert getattr(gpu, name) == value, name

    @pytest.mark.parametrize("persistent", [True, False])
    def test_gpu_batch_timing_prices_gpu0(self, persistent):
        cost = CostModel(PlatformSpec())
        gpu0 = cost.device_for("gpu0")
        stats = BatchStats(batch_size=64, mean_packet_bytes=512.0)
        offloadable = [
            element
            for nf_type in sorted(NF_CATALOG)
            for element in make_nf(nf_type).graph.elements().values()
            if isinstance(element, OffloadableElement)
            and element.offloadable
        ]
        assert offloadable
        for element in offloadable:
            assert cost.gpu_batch_timing(
                element, stats, persistent_kernel=persistent
            ) == cost.device_batch_timing(
                element, stats, gpu0, persistent_kernel=persistent)


class TestWithWithoutDevices:
    def test_with_devices_appends_and_preserves_original(self):
        base = PlatformSpec.small()
        nic = smartnic_device("nic0")
        grown = base.with_devices(nic)
        assert "nic0" in grown.device_ids()
        assert "nic0" not in base.device_ids()  # frozen copy semantics

    def test_with_devices_duplicate_of_existing_extra(self):
        platform = PlatformSpec.small().with_smartnic()
        with pytest.raises(ValueError, match="duplicate"):
            platform.with_devices(smartnic_device("nic0"))

    def test_without_devices_removes_extra(self):
        platform = PlatformSpec.small().with_smartnic()
        shrunk = platform.without_devices("nic0")
        assert "nic0" not in shrunk.device_ids()
        assert "nic0" in platform.device_ids()

    def test_without_devices_unknown_id_structured_keyerror(self):
        platform = PlatformSpec.small()
        with pytest.raises(KeyError) as excinfo:
            platform.without_devices("tpu3")
        message = str(excinfo.value)
        assert "tpu3" in message
        assert "gpu0" in message  # names the surviving inventory

    def test_without_devices_refuses_builtin_processors(self):
        platform = PlatformSpec.small()
        with pytest.raises(ValueError, match="built-in"):
            platform.without_devices("gpu0")
        with pytest.raises(ValueError, match="built-in"):
            platform.without_devices(DEFAULT_HOST_DEVICE)


class TestEmptyInventory:
    def test_no_gpus_platform_has_no_offload_groups(self):
        platform = PlatformSpec(sockets=1, gpus=0)
        assert platform.gpu_processor_ids() == []
        assert platform.offload_device_groups() == {}

    def test_no_gpus_device_lookup_structured_keyerror(self):
        platform = PlatformSpec(sockets=1, gpus=0)
        with pytest.raises(KeyError) as excinfo:
            platform.device("gpu0")
        assert "gpu0" in str(excinfo.value)

    def test_no_gpus_plus_smartnic_offloads_via_nic(self):
        platform = PlatformSpec(sockets=1, gpus=0).with_smartnic()
        groups = platform.offload_device_groups()
        assert list(groups) == [SMARTNIC_KIND]
