"""Differential tests: every route of a stage against that stage's oracle.

Each ``test_<stage>.py`` holds one route table — a row per way the stage
can run, naming its worker count so ``REPRO_NUM_WORKERS`` cannot change
which route runs — and runs every input family of :mod:`.strategies`
through every route.  The oracles are ``Transformation.covers`` (coverage),
``Transformation.apply`` (apply), the one-at-a-time join loop and the seed
nested-loop matcher (``tests/oracles/``).
"""
