"""End-to-end serving benchmark: one server process behind a socket, one
open-loop generator process, three workloads (``sparse``, ``burst``,
``decode``).  Run ``python3 perfbench/run.py --help`` from the repository
root."""
