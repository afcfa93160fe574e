"""Contraction Hierarchies: preprocessing-based search engine subsystem.

The modules mirror the lifecycle of a CH deployment:

* :mod:`~repro.search.ch.contract` — one-time preprocessing producing an
  immutable :class:`ContractedGraph` (node ordering, witness searches,
  shortcut insertion);
* :mod:`~repro.search.ch.query` — shortcut unpacking back into original
  network nodes;
* :mod:`~repro.search.ch.persist` — save/load of contracted graphs so a
  server pays preprocessing once per road network.

The queries themselves run on the flat arrays of
:class:`repro.search.kernels.CSRHierarchy` (the ``"ch-csr"`` engine):
bidirectional upward point queries with stall-on-demand and the
bucket-based many-to-many batch algorithm.
"""

from repro.search.ch.contract import (
    ContractedGraph,
    ContractionStats,
    contract_network,
)
from repro.search.ch.query import unpack_path
from repro.search.ch.persist import (
    dumps_contracted,
    loads_contracted,
    read_contracted,
    write_contracted,
)

__all__ = [
    "ContractedGraph",
    "ContractionStats",
    "contract_network",
    "unpack_path",
    "read_contracted",
    "write_contracted",
    "dumps_contracted",
    "loads_contracted",
]
