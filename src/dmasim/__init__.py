"""Semi-blind link-level simulator for metasurface-antenna downlinks.

Estimates the over-the-air channel, the antenna's internal response, and
the transmitted symbols jointly from one received block, and compares the
iterative two-stage receiver against closed-form references under
semi-unitary training.
"""

__version__ = "0.1.0"
