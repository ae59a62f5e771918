"""Lock down the NF catalog against the paper's Table II."""

import pytest

from repro.nf.base import NetworkFunction
from repro.nf.catalog import NF_CATALOG, action_profile_of, make_nf

#: The paper's Table II, transcribed: (HDR rd, PL rd, HDR wr, PL wr,
#: add/rm bits, drop).
TABLE_II = {
    "probe":    (True, False, False, False, False, False),
    "ids":      (True, True, False, False, False, True),
    "firewall": (True, False, False, False, False, False),
    "nat":      (True, False, True, False, False, False),
    "lb":       (True, False, False, False, False, False),
    "wanopt":   (True, True, True, True, True, True),
    "proxy":    (True, True, False, True, False, False),
}


@pytest.mark.parametrize("nf_type", sorted(TABLE_II))
def test_table_ii_profiles_match_paper(nf_type):
    profile = action_profile_of(nf_type)
    hdr_rd, pl_rd, hdr_wr, pl_wr, bits, drop = TABLE_II[nf_type]
    assert profile.reads_header == hdr_rd
    assert profile.reads_payload == pl_rd
    assert profile.writes_header == hdr_wr
    assert profile.writes_payload == pl_wr
    assert profile.adds_removes_bits == bits
    assert profile.drops == drop


@pytest.mark.parametrize("nf_type", sorted(NF_CATALOG))
def test_every_catalog_entry_instantiates_and_builds(nf_type):
    nf = make_nf(nf_type)
    assert isinstance(nf, NetworkFunction)
    graph = nf.graph
    graph.validate()
    assert len(graph) >= 3  # at least rx + core + tx


def test_unknown_nf_type_rejected():
    with pytest.raises(KeyError):
        make_nf("quantum-firewall")


def test_catalog_descriptions_non_empty():
    for entry in NF_CATALOG.values():
        assert entry.description


def test_make_nf_forwards_kwargs():
    nf = make_nf("firewall", matcher_kind="tree", name="custom-fw")
    assert nf.name == "custom-fw"
    assert nf.matcher_kind == "tree"


@pytest.mark.parametrize("nf_type", sorted(NF_CATALOG))
def test_catalog_profile_matches_class_attribute(nf_type):
    entry = NF_CATALOG[nf_type]
    nf = make_nf(nf_type)
    assert nf.actions == entry.actions
