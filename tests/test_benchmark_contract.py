"""The benchmark's hold on the library, in tier 1: each workload of
``perfbench/workloads.py`` runs one pass at size ``tiny`` inside the span
tracer, and every op's check of its verdict, digest or exit code must
pass.  A change that breaks what the benchmark reads (a name the tracer
wraps, ``Certificate.certified``, a pinned digest) then fails here and not
only under ``python3 -m pytest perfbench``."""

import pytest

from perfbench import spans, workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_op_of_a_tiny_traced_pass_passes_its_check(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1, "tiny", tmp_path / "work")
    try:
        ops = workload.ops(state)
        with spans.Tracer().installed() as tracer:
            failed = [op.label for op in ops if not op.check(op.call())]
    finally:
        state.cleanup()
    assert failed == []
    assert tracer.names
