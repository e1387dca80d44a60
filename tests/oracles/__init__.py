"""Slow, obviously-correct implementations that only tests call.

Each module keeps a seed implementation that a fast path in ``src/`` must
reproduce exactly: :mod:`oracles.matching` (the nested-loop row matcher and
the paper's IRF and Rscore definitions), :mod:`oracles.cover` (the set-based
greedy cover scan) and :mod:`oracles.join` (the one-transformation-at-a-time
join loop).  :mod:`oracles.discovery` is the paper's Section 3.1 naive
enumeration, the exhaustive search that discovery can be checked against on
tiny inputs.
"""
