import doctest

import pcikit.algebra
import pcikit.cyclotomic
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
    ):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
