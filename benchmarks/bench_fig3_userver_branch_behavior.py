"""Figure 3: per-branch-location execution counts for the uServer.

Paper shape: roughly 10 % of branch *executions* are symbolic, the symbolic
executions are concentrated in a small set of (application parser) locations,
and the majority of branch executions happen in the library code while only a
minority of the symbolic ones do.
"""

from repro.experiments import print_table, userver_exp
from benchmarks.conftest import run_once


def test_fig3_userver_branch_behavior(benchmark):
    rows = run_once(benchmark, userver_exp.figure3_rows, 10)
    print_table(rows, "Figure 3 - uServer branch executions per location")
    summary = userver_exp.figure3_summary(rows)
    print_table([summary], "Figure 3 - aggregate shares")
    # A small minority of executions are symbolic.
    assert summary["symbolic_fraction"] < 0.35
    # Most branch executions happen in the library.
    assert summary["library_fraction"] > 0.5
    # (Divergence from the paper: because this server
    # delegates all byte scanning to the lib_* helpers, the library's share of
    # *symbolic* executions is higher here than the paper's 28%.)
    assert summary["symbolic_locations"] >= 10
