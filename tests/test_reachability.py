"""Every module-level function of src/pcikit is reached: a fixed small CLI
corpus enters it, perfbench's tracing wraps it (TARGETS), or KEEP names it
with the reason it stays.  So new code in src/ that no command, no
benchmark span and no stated reason reaches fails here; code that only the
tests use belongs in tests/*_reference.py.  The package itself exports
only the names the README's Library section lists."""

import contextlib
import importlib
import inspect
import io
import pkgutil
import re
import sys
from pathlib import Path

import pcikit
from conftest import load_tracing
from pcikit import cli

# Each subcommand in each format, with --alternate-order where it applies,
# on a p-group, a multi-prime group and cyclic groups (split and the
# splitting-field check; an axis of 128, which the transform splits
# four-step; C_67, whose axis no transform covers), and refused inputs.
GROUPS = ("2:[2,1]", "3:[1,1]", "2:[1];3:[1]")
CORPUS = [
    [sub, "--group", group, "--format", fmt, *flags]
    for group in GROUPS
    for sub, formats in (
        ("pci", ("json", "text")),
        ("diagram", ("json", "text", "dot")),
        ("wedderburn", ("json", "text")),
        ("verify", ("json", "text")),
    )
    for fmt in formats
    for flags in ((), ("--alternate-order",)) if flags == () or sub != "wedderburn"
] + [
    ["split", "--group", "2:[3]"],
    ["split", "--group", "3:[2]", "--format", "text"],
    ["verify", "--group", "2:[3]"],
    ["verify", "--group", "2:[7]"],
    ["verify", "--group", "67:[1]"],
    ["pci", "--group", "2:[x]"],  # not the grammar
    ["pci", "--group", "4:[1]"],  # not a prime
    ["pci", "--group", "2:[1];2:[1]"],  # duplicate prime
    ["pci", "--group", "2:[13]"],  # over the order cap
    ["pci", "--group", "618970019642690137449562111:[1]"],  # over the cap, by length
    ["pci", "--group", "3:[1]", "--max-order", "0"],
    ["pci", "--group", "2:[1]", "--format", "dot"],  # a format pci does not take
    ["split", "--group", "2:[1,1]"],  # not cyclic
    ["split", "--group", "2:[9]", "--max-order", "1024"],  # over split's limit
]

# Functions no command of CORPUS enters and no TARGETS entry names, each
# with the reason it stays in src/.
KEEP = {
    "pcikit.algebra.integer_form": "AlgebraElement.from_coeffs and CycloNumber read rationals by it",
    "pcikit.algebra._rational": "is_idempotent, are_orthogonal, kernel_subgroup refuse by it",
    "pcikit.algebra.expansion_numerators": "expand_from_subgroup (TARGETS) wraps it",
    "pcikit.algebra.fixing_subgroup": "kernel_subgroup (TARGETS) wraps it",
    "pcikit.cli.run": "perfbench's tracing.install() wraps it as each subcommand's span",
    "pcikit.cyclotomic._modulus": "the Q(zeta_m) constructors check the modulus by it",
    "pcikit.cyclotomic._zeros": "CycloAlgebraElement.zero, .one and .monomial",
    "pcikit.diagram._cyclic_spec": "extension_children, lift_into_extension (TARGETS)",
    "pcikit.groups.element": "the README's constructor of a GroupElement from exponents",
    "pcikit.groups.identity": "AlgebraElement.one",
    "pcikit.groups.index_set": "the subgroup form of fixing_subgroup and subgroup_closure",
    "pcikit.groups.member_index": "AlgebraElement.basis, CycloAlgebraElement.monomial",
    "pcikit.groups.group_mul": "GroupElement.__mul__",
    "pcikit.groups.element_order": "extension_children (TARGETS) checks its generator by it",
    "pcikit.groups.extend_subgroup": "subgroup_closure (TARGETS) grows by it",
    "pcikit.kernels.active_backend": "perfbench/worker.py records it",
}


def module_functions():
    """(module name, name, function) for each function defined at the top
    level of a pcikit module; a functools.cache wrapper stands for the
    function it wraps."""
    for info in pkgutil.iter_modules(pcikit.__path__):
        module = importlib.import_module(f"pcikit.{info.name}")
        for name, obj in vars(module).items():
            fn = getattr(obj, "__wrapped__", obj)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield module.__name__, name, fn


def entered_by_corpus() -> set:
    """The code objects of every Python function CORPUS enters, run in
    process with every pcikit cache cleared first, so that a cached
    function is entered too."""
    for module_name, name, _ in module_functions():
        clear = getattr(getattr(sys.modules[module_name], name), "cache_clear", None)
        if clear is not None:
            clear()
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        for argv in CORPUS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.main(argv)
                except SystemExit:  # argparse refuses the argument
                    pass
    finally:
        sys.setprofile(None)
    return entered


def test_every_function_in_src_is_reached():
    targets = {
        (owner.__name__, attr)
        for owner, attr, _, _ in load_tracing().TARGETS
        if inspect.ismodule(owner)
    }
    entered = entered_by_corpus()
    functions = {(m, name): fn for m, name, fn in module_functions()}
    unreached = {
        f"{m}.{name}"
        for (m, name), fn in functions.items()
        if fn.__code__ not in entered and (m, name) not in targets
    }
    assert sorted(unreached - KEEP.keys()) == [], "reached by nothing and not in KEEP"
    assert sorted(KEEP.keys() - unreached) == [], "in KEEP but reached, or gone"


def test_library_surface_is_the_readme_list():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("exports exactly these names", 1)[1].split("\n\n", 1)[0]
    assert sorted(pcikit.__all__) == sorted(re.findall(r"`(\w+)`", listed))
