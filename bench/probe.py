"""Cold set-up of one in-process workload, paid in a fresh interpreter.

    python bench/probe.py jacobi_dense|coproduct_dense

Imports the package and builds everything the workload needs before its
first check (algebras; for coproduct_dense also the short representations
and the coproduct maps), then exits.  The benchmark times this process from
spawn to exit as ``setup_s``.
"""
import sys

import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].build()
