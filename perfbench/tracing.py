"""Per-layer spans and counters, recorded by wrapping pcikit's functions.

``install()`` replaces each target in its defining module, in every pcikit
module that imported it by name, or on its class, with a wrapper that
records a span.  A span's self time is its duration minus the time its
wrapped children took; each operation's root span (the whole ``main``
call) keeps what no wrapped layer covers, so the self times of all spans
add up to the operation's time.  A span nested in one of the same name
(``is_idempotent`` calling ``convolve``) counts one call, not two.

Layers are the pcikit modules; ``cli`` holds the root spans and the time in
``cli.run`` outside every other layer (argument handling, serialisation,
orchestration).
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

import pcikit
from pcikit import algebra, cli, cyclotomic, diagram, groups, kernels, oracle

LAYERS = ("kernels", "algebra", "groups", "diagram", "cyclotomic", "oracle", "cli")
SUBCOMMANDS = ("pci", "diagram", "wedderburn", "split", "verify")


def _nnz(v) -> int:
    return len(v) - v.count(0)


def _count_convolve(counts, args, result):
    a, b = args[0], args[1]
    counts["kernels.terms"] += _nnz(a) * _nnz(b)
    counts["kernels.entries"] += len(a)


def _count_diagram(counts, args, result):
    counts["diagram.vertices"] += sum(len(level) for level in result.levels)
    children = Counter(parent for parent, _ in result.edges)
    counts["diagram.splits"] += sum(1 for c in children.values() if c > 1)
    counts["diagram.carries"] += sum(1 for c in children.values() if c == 1)


def _count_closure(counts, args, result):
    counts["groups.closure_elements"] += len(result)


def _count_oracle(counts, args, result):
    counts["oracle.characters"] += args[0].order


# (owner, attribute, span name, counter)
TARGETS = (
    (kernels, "convolve_ints", "kernels.convolve", _count_convolve),
    (kernels, "_convolve_bigint", "kernels.bigint", None),
    (algebra, "convolve", "algebra.product", None),
    (algebra, "is_idempotent", "algebra.product", None),
    (algebra, "are_orthogonal", "algebra.product", None),
    (algebra.AlgebraElement, "__init__", "algebra.element_init", None),
    (algebra, "kernel_subgroup", "algebra.kernel_subgroup", None),
    (algebra, "expand_factored", "algebra.expand", None),
    (algebra, "expand_from_subgroup", "algebra.expand", None),
    (groups, "parse_group_spec", "groups.parse", None),
    (groups, "subgroup_closure", "groups.closure", _count_closure),
    (diagram, "build_pci_diagram", "diagram.build", _count_diagram),
    (diagram, "pci_records", "diagram.records", None),
    (diagram.PciDiagram, "leaf_expansions", "diagram.leaf_expand", None),
    (diagram, "cross_prime_product", "diagram.cross_product", None),
    (diagram, "splitting_field_pcis", "diagram.splitting", None),
    (diagram, "galois_orbit_collapse", "diagram.collapse", None),
    (diagram, "extension_children", "diagram.extension", None),
    (diagram, "lift_into_extension", "diagram.extension", None),
    (cyclotomic.CycloAlgebraElement, "__mul__", "cyclotomic.product", None),
    (cyclotomic.CycloAlgebraElement, "reduced", "cyclotomic.reduce", None),
    (cyclotomic.CycloAlgebraElement, "__init__", "cyclotomic.element_init", None),
    (cyclotomic.CycloNumber, "__init__", "cyclotomic.number", None),
    (oracle, "oracle_pci_set", "oracle.pci_set", _count_oracle),
    (oracle, "wedderburn_profile", "oracle.wedderburn", None),
    (oracle, "compare_pci_sets", "oracle.compare", None),
)


class Tracer:
    """Span totals for one process: calls, inclusive and self seconds."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._active: Counter[str] = Counter()
        self._child = [0.0]  # time covered by children of each open span

    def span(self, name, fn, *args, **kwargs):
        outermost = not self._active[name]
        self._active[name] += 1
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._child.pop()
            self._child[-1] += dt
            self._active[name] -= 1
            self.self_time[name] += dt - child
            if outermost:
                self.calls[name] += 1
                self.total[name] += dt

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded so far."""
        c, t = self.calls, self.total
        conv_s = t["kernels.convolve"]
        out = {
            "kernels.convolve_calls": c["kernels.convolve"],
            "kernels.convolve_s": conv_s,
            "kernels.convolve_terms": self.counts["kernels.terms"],
            "kernels.terms_per_s": self.counts["kernels.terms"] / conv_s if conv_s else 0.0,
            "kernels.lattice_entries": self.counts["kernels.entries"],
            "kernels.bigint_calls": c["kernels.bigint"],
            "groups.parse_s": t["groups.parse"],
            "groups.closure_calls": c["groups.closure"],
            "groups.closure_s": t["groups.closure"],
            "groups.closure_elements": self.counts["groups.closure_elements"],
            "diagram.build_calls": c["diagram.build"],
            "diagram.build_s": t["diagram.build"],
            "diagram.vertices": self.counts["diagram.vertices"],
            "diagram.splits": self.counts["diagram.splits"],
            "diagram.carries": self.counts["diagram.carries"],
            "diagram.leaf_expand_s": t["diagram.leaf_expand"],
            "diagram.cross_product_s": t["diagram.cross_product"],
            "diagram.splitting_s": t["diagram.splitting"],
            "diagram.collapse_s": t["diagram.collapse"],
            "diagram.extension_s": t["diagram.extension"],
            "oracle.pci_set_calls": c["oracle.pci_set"],
            "oracle.pci_set_s": t["oracle.pci_set"],
            "oracle.characters": self.counts["oracle.characters"],
            "oracle.wedderburn_s": t["oracle.wedderburn"],
            "oracle.compare_s": t["oracle.compare"],
            "cli.output_bytes": self.counts["cli.output_bytes"],
        }
        for name in ("product", "element_init", "kernel_subgroup", "expand"):
            out[f"algebra.{name}_calls"] = c[f"algebra.{name}"]
            out[f"algebra.{name}_s"] = t[f"algebra.{name}"]
        for name in ("product", "reduce", "number"):
            out[f"cyclotomic.{name}_calls"] = c[f"cyclotomic.{name}"]
            out[f"cyclotomic.{name}_s"] = t[f"cyclotomic.{name}"]
        out["cyclotomic.element_init_s"] = t["cyclotomic.element_init"]
        for sub in SUBCOMMANDS:
            out[f"cli.{sub}_s"] = t[f"cli.{sub}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_time.items() if k.split(".")[0] == layer
            )
        return out


def install() -> Tracer:
    """Wrap every target and return the tracer that records them."""
    tracer = Tracer()
    modules = [
        m for name, m in list(sys.modules.items())
        if name == "pcikit" or name.startswith("pcikit.")
    ]
    for owner, attr, name, count in TARGETS:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    original_run = cli.run
    cli.run = lambda config: tracer.span(f"cli.{config.subcommand}", original_run, config)
    return tracer


def traced_main(tracer: Tracer, argv: list[str]) -> int:
    """pcikit.cli.main under the operation's root span."""
    return tracer.span("cli.main", pcikit.cli.main, argv)
