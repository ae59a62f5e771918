"""Unit tests for offloadable elements."""


from repro.elements.offload import OffloadTraits


class TestOffloadableElement:
    def test_traits_defaults(self):
        traits = OffloadTraits()
        assert traits.relative
        assert not traits.divergent
