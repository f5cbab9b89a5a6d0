import doctest

import pcikit.algebra
import pcikit.cyclotomic
import pcikit.diagram
import pcikit.groups
import pcikit.kernels
import pcikit.numtheory


def test_module_doctests():
    for module in (
        pcikit.numtheory,
        pcikit.groups,
        pcikit.kernels,
        pcikit.cyclotomic,
        pcikit.algebra,
        pcikit.diagram,
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
