"""Slow, obviously-correct implementations that only tests call.

Each module keeps a seed implementation that a fast path in ``src/`` must
reproduce exactly: :mod:`oracles.matching` (the nested-loop row matcher),
:mod:`oracles.cover` (the set-based greedy cover scan) and
:mod:`oracles.join` (the one-transformation-at-a-time join loop).
"""
