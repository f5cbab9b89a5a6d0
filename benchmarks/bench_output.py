"""The cost of the CLI's largest outputs and of verify at the cap, one
fresh process per row.

For each row (a command, a group, a format and any further flags) this
runs `pcikit.cli.main` in a new child process and
prints its wall time, the child's own peak resident memory (VmHWM, read in
the child when main returns) and the bytes it wrote to stdout, with their
md5, so that two checkouts can be compared byte for byte.  Run from the
repository root:

    PYTHONPATH=src python benchmarks/bench_output.py
    PYTHONPATH=src python benchmarks/bench_output.py --small

The default rows are the outputs of the largest groups the default order cap
admits, verify on C_2^12, the largest, with and without --alternate-order,
and verify on C_61, whose splitting-field check refines the most children
from one row; --small runs the same commands on small groups, in a few
seconds.
Every child must exit 0; a row that does not ends the run with an error.
The first line is the line count of src/pcikit/*.py and of tests/*.py, so
that each run reports the code's size next to its timings, and code moved
from src/ into the tests shows as a move.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ALTERNATE = ("--alternate-order",)
ROWS = (
    ("pci", "2:[1]*12", "json", ()),
    ("pci", "2:[1]*12", "text", ()),
    ("pci", "2:[1]*10;3:[1]", "json", ()),
    ("split", "2:[8]", "json", ()),
    ("split", "2:[8]", "text", ()),
    ("diagram", "2:[1]*12", "json", ()),
    ("diagram", "2:[1]*12", "dot", ()),
    ("verify", "2:[1]*12", "json", ()),
    ("verify", "2:[1]*12", "json", ALTERNATE),
    ("verify", "61:[1]", "json", ()),
)
SMALL_ROWS = (
    ("pci", "2:[1]*6", "json", ()),
    ("pci", "2:[1]*6", "text", ()),
    ("pci", "2:[1]*4;3:[1]", "json", ()),
    ("split", "2:[4]", "json", ()),
    ("split", "5:[2]", "json", ()),
    ("diagram", "2:[1]*6", "json", ()),
    ("diagram", "2:[1]*6", "dot", ()),
    ("verify", "2:[1]*6", "json", ()),
    ("verify", "2:[1]*6", "json", ALTERNATE),
)

# Runs main with the arguments after the first, then writes the process's
# peak resident memory in kB to stderr as its last line.
CHILD = """
import resource, sys
from pcikit.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
try:
    with open("/proc/self/status") as status:
        peak = next(int(l.split()[1]) for l in status if l.startswith("VmHWM:"))
except OSError:  # no procfs: getrusage gives the peak in kB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sys.stderr.write(f"\\npeak_kb {peak}\\n")
sys.exit(code)
"""


def expand_group_text(text):
    # "2:[1]*6" is shorthand for "2:[1,1,1,1,1,1]", in each ";"-separated part
    parts = []
    for part in text.split(";"):
        if "*" in part:
            head, mult = part.split("*")
            prime, exps = head.split(":[")
            part = f"{prime}:[{','.join([exps.rstrip(']')] * int(mult))}]"
        parts.append(part)
    return ";".join(parts)


def run_row(subcommand: str, group: str, fmt: str, flags: tuple[str, ...]) -> dict:
    argv = [subcommand, "--group", expand_group_text(group), "--format", fmt, *flags]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    digest, size = hashlib.md5(), 0
    # stdout is hashed as it comes, so the parent holds none of it; stderr
    # goes to a file, so the child never blocks on a full stderr pipe
    with tempfile.TemporaryFile() as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, *argv],
            stdout=subprocess.PIPE,
            stderr=err_file,
            env=env,
        )
        with proc:
            while block := proc.stdout.read(1 << 20):
                digest.update(block)
                size += len(block)
        wall = time.perf_counter() - start
        err_file.seek(0)
        err = err_file.read().decode()
    lines = err.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("peak_kb "):
        raise SystemExit(f"{' '.join(argv)}: exit {proc.returncode}\n{err}")
    return {
        "command": subcommand,
        "group": group,
        "format": fmt,
        "flags": " ".join(flags),
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(int(lines[-1].split()[1]) / 1024, 1),
        "output_bytes": size,
        "md5": digest.hexdigest(),
    }


def source_lines(directory: Path) -> int:
    """The line count of directory/*.py, as `cat directory/*.py | wc -l`
    gives it."""
    return sum(path.read_bytes().count(b"\n") for path in directory.glob("*.py"))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true", help="small groups, for CI")
    args = parser.parse_args()

    print(
        f"src/pcikit/*.py: {source_lines(SRC / 'pcikit')} lines, "
        f"tests/*.py: {source_lines(ROOT / 'tests')} lines"
    )
    head = ("command", "group", "format", "wall", "peak RSS", "output")
    widths = (8, 16, 6, 8, 10, 12)
    print(" ".join(f"{h:>{w}}" for h, w in zip(head, widths)) + "  md5 (flags)")
    for subcommand, group, fmt, flags in SMALL_ROWS if args.small else ROWS:
        row = run_row(subcommand, group, fmt, flags)
        print(
            f"{subcommand:>8} {group:>16} {fmt:>6} {row['wall_s']:>7.2f}s "
            f"{row['peak_rss_mb']:>8.1f}MB {row['output_bytes']:>12}  {row['md5']}"
            + (f" ({row['flags']})" if flags else "")
        )


if __name__ == "__main__":
    main()
