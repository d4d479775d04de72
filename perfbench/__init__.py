"""End-to-end and per-layer benchmark of the ``dpconsensus`` command line.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a source checkout; see ``README.md``.
"""
