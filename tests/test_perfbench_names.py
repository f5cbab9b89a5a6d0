"""The pcikit names the benchmark harness under perfbench/ reads resolve.

perfbench's own tests are not part of this suite, so a deleted or renamed
target would otherwise go unnoticed here.
"""

from collections import Counter

import pcikit
from conftest import load_tracing
from pcikit import cli
from pcikit.diagram import build_pci_diagram
from pcikit.groups import parse_group_spec


def test_perfbench_names_resolve():
    for owner, attr, name, _ in load_tracing().TARGETS:
        assert callable(getattr(owner, attr)), name
    # install() wraps cli.run as each subcommand's span.
    code, text = cli.run(cli.RunConfig("pci", "2:[1]", "text"))
    assert code == 0 and text.startswith("group C_2 (2:[1]), order 2\n")
    # perfbench/worker.py records these on its environment line.
    assert isinstance(pcikit.active_backend(), str)
    assert hasattr(pcikit.kernels, "numba") and hasattr(pcikit.kernels, "np")


def test_perfbench_diagram_counter_reads_levels_and_edges():
    # tracing._count_diagram counts vertices, splits and carries from these.
    diag = build_pci_diagram(parse_group_spec("2:[2,1]").parts[0])
    assert [len(level) for level in diag.levels] == diag.level_sizes()
    assert len(diag.edges) == sum(diag.level_sizes()[1:])
    for (l, parent), (child_level, child) in diag.edges:
        assert child_level == l + 1
        assert 0 <= parent < len(diag.levels[l]) and 0 <= child < len(diag.levels[l + 1])
    counts = Counter()
    load_tracing()._count_diagram(counts, (diag.spec,), diag)
    assert counts["diagram.vertices"] == sum(diag.level_sizes())
    assert counts["diagram.splits"] + counts["diagram.carries"] > 0
