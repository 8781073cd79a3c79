"""Movable-RIS mmWave link simulator.

Geometric two-hop channels, angular two-stage beamforming, swarm-optimized
RIS placement and phase shifts, and Monte Carlo baseline comparisons.
Import names from their modules; the package root re-exports nothing.
"""

__version__ = "0.1.0"
