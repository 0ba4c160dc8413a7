"""Topology of delay-coordinate reconstructions.

Pipeline: integrate a flow, observe one coordinate, choose a delay at the
first minimum of the average mutual information, delay-embed, pick landmarks,
build the fuzzy witness complex as an exact edge-birth filtration, and read
off persistent homology across every scale at once.
"""

__version__ = "0.1.0"
