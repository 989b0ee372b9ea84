"""The CLI pauses the cyclic collector for the commands that sweep S_n, and only for them.

A sweep allocates millions of tracked tuples, so the collector's passes cost
more than the sweep's own work at large n.  ``cli.collector_paused`` turns it
off for ``verify``, ``explore`` and ``table``, then turns it back on and runs
the one young pass it put off.  A caller with the collector off keeps it off
and sees no collection.
"""
import gc

import pytest

from flagq import cli, qhring, seidel, table

CACHE = object()  # stands for the test's cache directory in an argv

# (module, the function cli.main calls it through, argv, paused)
SPIED = [
    (seidel, "verify_seidel", ["verify", "seidel", "--n", "3"], True),
    (seidel, "explore_classical_equality", ["explore", "--n", "3", "--i", "1", "--j", "2"], True),
    (table, "build_table", ["table", "--n", "3", "--cache-dir", CACHE], True),
    (qhring, "quantum_product", ["product", "--n", "3", "--u", "213", "--v", "132"], False),
    (qhring, "reduce_trace", ["reduce", "--n", "4", "--u-word", "3,2,1,2", "--v-word", "2,1,2",
                              "--w-word", "1,2,3", "--lambda", "1,1,0"], False),
]


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def caller_collector(request):
    """The collector's state in the caller of cli.main; restored after the test."""
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_on else gc.disable)()


@pytest.mark.parametrize("module, name, argv, paused", SPIED, ids=[s[1] for s in SPIED])
def test_collector_is_paused_only_inside_sweeps(
    module, name, argv, paused, caller_collector, monkeypatch, tmp_path, capsys
):
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    starts = []

    def count_starts(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count_starts)
    try:
        code = cli.main([str(tmp_path) if a is CACHE else a for a in argv])
    finally:
        gc.callbacks.remove(count_starts)
    assert code == 0
    assert seen == [caller_collector and not paused]
    assert gc.isenabled() == caller_collector
    if not caller_collector:
        assert starts == []


def test_repeated_calls_leave_no_growing_garbage(capsys):
    # each call leaves the same cyclic garbage (the argparse parser's), and
    # nothing the collector cannot free
    argv = ["verify", "all", "--n", "4", "--format", "json"]
    gc.collect()
    counts = []
    for _ in range(4):
        assert cli.main(argv) == 0
        counts.append(gc.collect())
        assert gc.garbage == []
    assert len(set(counts)) == 1, counts
