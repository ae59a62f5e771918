"""Click-like packet-processing element framework.

NFCompass's algorithms (NF synthesis, fine-grained expansion, graph
partitioning) all operate on *element graphs* in the style of the
Click modular router: small processing elements with input/output
ports, connected into a DAG, pushing packet batches downstream.

This package provides the element base classes, the graph container,
a library of standard elements, and the offloadable-element base
class with the traits the cost model prices offload by.
"""

from repro.elements.element import (
    Element,
    TrafficClass,
    ActionProfile,
    PortSpec,
)
from repro.elements.graph import ElementGraph, Edge
from repro.elements.offload import OffloadableElement
from repro.elements.config import parse_config, register_element
from repro.elements import standard

__all__ = [
    "Element",
    "TrafficClass",
    "ActionProfile",
    "PortSpec",
    "ElementGraph",
    "Edge",
    "OffloadableElement",
    "parse_config",
    "register_element",
    "standard",
]
